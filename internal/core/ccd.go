package core

import (
	"pane/internal/mat"
)

// ccdNodeSweep performs Lines 3-9 of Algorithm 4 for node rows [lo, hi):
// with Y fixed, each coordinate Xf[v,l] and Xb[v,l] is moved to its
// per-coordinate least-squares optimum using the maintained residuals:
//
//	μ_f(v,l) = Sf[v]·Y[:,l] / (Y[:,l]·Y[:,l])         (Eq. 16)
//	Xf[v,l] −= μ_f(v,l)                               (Eq. 13)
//	Sf[v]   −= μ_f(v,l)·Y[:,l]ᵀ                       (Eq. 18)
//
// and symmetrically for Xb/Sb. yNormInv caches 1/(Y[:,l]·Y[:,l]).
// Different rows touch disjoint state, so the sweep parallelizes over
// rows without any change to the result.
func ccdNodeSweep(st *state, yNormInv []float64, yColT *mat.Dense, lo, hi int) {
	for v := lo; v < hi; v++ {
		ccdNodeRow(st, yNormInv, yColT, v)
	}
}

// ccdNodeSweepRows is ccdNodeSweep over an explicit row list instead of a
// contiguous range — the delta-update path refines only the node rows an
// update actually touched. Per-row arithmetic is identical, so a listed
// row moves exactly as it would in a full sweep from the same state.
func ccdNodeSweepRows(st *state, yNormInv []float64, yColT *mat.Dense, rows []int) {
	for _, v := range rows {
		ccdNodeRow(st, yNormInv, yColT, v)
	}
}

// ccdNodeRow moves one node row's coordinates to their per-coordinate
// optima and patches its residual row (Eqs. 13, 16, 18). The dots and
// residual patches run on the mat kernels, whose canonical summation order
// keeps the result bit-identical across instruction sets.
func ccdNodeRow(st *state, yNormInv []float64, yColT *mat.Dense, v int) {
	half := st.Xf.Cols
	sfRow := st.Sf.Row(v)
	sbRow := st.Sb.Row(v)
	xfRow := st.Xf.Row(v)
	xbRow := st.Xb.Row(v)
	for l := 0; l < half; l++ {
		if yNormInv[l] == 0 {
			continue
		}
		ycol := yColT.Row(l) // Y[:,l] as a contiguous slice
		// float64() rounds each step before it is subtracted: without it
		// the compiler may fuse the product into the subtraction (arm64).
		muF := float64(mat.Dot(sfRow, ycol) * yNormInv[l])
		muB := float64(mat.Dot(sbRow, ycol) * yNormInv[l])
		xfRow[l] -= muF
		xbRow[l] -= muB
		mat.AxpyVec(-muF, ycol, sfRow)
		mat.AxpyVec(-muB, ycol, sbRow)
	}
}

// ccdAttrSweep performs Lines 10-14 of Algorithm 4 for attribute rows
// [lo, hi): with Xf, Xb fixed, each coordinate Y[r,l] moves to the joint
// optimum of the forward and backward losses:
//
//	μ_y(r,l) = (Xf[:,l]·Sf[:,r] + Xb[:,l]·Sb[:,r]) /
//	           (Xf[:,l]·Xf[:,l] + Xb[:,l]·Xb[:,l])   (Eq. 17)
//	Y[r,l]  −= μ_y(r,l)                              (Eq. 15)
//	Sf[:,r] −= μ_y(r,l)·Xf[:,l], Sb[:,r] −= μ_y·Xb[:,l]  (Eq. 20)
//
// xNormInv caches the combined column norms; xfColT/xbColT are the column
// views of Xf/Xb. The residuals arrive TRANSPOSED (sfT, sbT are d x n) so
// that each attribute's residual column is a contiguous row — walking
// Sf[:,r] in row-major n x d layout would stride by d and miss cache on
// every element, which dominates the whole solver on large graphs. Distinct attributes touch disjoint
// rows of the transposed residuals, so the sweep parallelizes without
// changing the result.
func ccdAttrSweep(st *state, xNormInv []float64, xfColT, xbColT, sfT, sbT *mat.Dense, lo, hi int) {
	for r := lo; r < hi; r++ {
		ccdAttrRow(st, xNormInv, xfColT, xbColT, sfT, sbT, r)
	}
}

// ccdAttrSweepRows is ccdAttrSweep over an explicit attribute-row list —
// the delta-update path refines only the attributes an update touched.
func ccdAttrSweepRows(st *state, xNormInv []float64, xfColT, xbColT, sfT, sbT *mat.Dense, rows []int) {
	for _, r := range rows {
		ccdAttrRow(st, xNormInv, xfColT, xbColT, sfT, sbT, r)
	}
}

// ccdAttrRow moves one attribute row's coordinates to their joint optima
// and patches its transposed residual rows (Eqs. 15, 17, 20).
func ccdAttrRow(st *state, xNormInv []float64, xfColT, xbColT, sfT, sbT *mat.Dense, r int) {
	half := st.Y.Cols
	yRow := st.Y.Row(r)
	sfRow := sfT.Row(r)
	sbRow := sbT.Row(r)
	for l := 0; l < half; l++ {
		if xNormInv[l] == 0 {
			continue
		}
		xfCol := xfColT.Row(l)
		xbCol := xbColT.Row(l)
		mu := float64((mat.Dot(xfCol, sfRow) + mat.Dot(xbCol, sbRow)) * xNormInv[l]) // rounded as in ccdNodeRow
		yRow[l] -= mu
		mat.AxpyVec(-mu, xfCol, sfRow)
		mat.AxpyVec(-mu, xbCol, sbRow)
	}
}

// sweepBufs holds what one CCD sweep caches: Y's columns and inverse
// squared norms for the node phase; Xf's and Xb's columns, their combined
// inverse squared norms, and the transposed residuals for the attribute
// phase. A refinement allocates it once and refills it every sweep — at
// n = 50k the transposed residuals alone are 80 MB per sweep otherwise.
type sweepBufs struct {
	yColT, xfColT, xbColT, sfT, sbT *mat.Dense
	yNormInv, xNormInv              []float64
}

func newSweepBufs(st *state) *sweepBufs {
	n, d, half := st.Xf.Rows, st.Y.Rows, st.Xf.Cols
	return &sweepBufs{
		yColT:    mat.New(half, d),
		xfColT:   mat.New(half, n),
		xbColT:   mat.New(half, n),
		sfT:      mat.New(d, n),
		sbT:      mat.New(d, n),
		yNormInv: make([]float64, half),
		xNormInv: make([]float64, half),
	}
}

// nodePhase readies the node phase (Y fixed): Y's columns, contiguous,
// and their inverse squared norms.
func (b *sweepBufs) nodePhase(st *state) {
	st.Y.TInto(b.yColT)
	for l := range b.yNormInv {
		b.yNormInv[l] = invPositive(mat.Dot(b.yColT.Row(l), b.yColT.Row(l)))
	}
}

// attrPhase readies the attribute phase (Xf, Xb fixed): their columns,
// the combined inverse squared norms, and the residuals transposed so
// each attribute's column is contiguous (see ccdAttrSweep). Two
// cache-blocked transposes per sweep are O(n·d) streamed memory —
// negligible next to the O(n·d·k) updates they make cache-friendly.
func (b *sweepBufs) attrPhase(st *state) {
	st.Xf.TInto(b.xfColT)
	st.Xb.TInto(b.xbColT)
	for l := range b.xNormInv {
		b.xNormInv[l] = invPositive(mat.Dot(b.xfColT.Row(l), b.xfColT.Row(l)) + mat.Dot(b.xbColT.Row(l), b.xbColT.Row(l)))
	}
	st.Sf.TInto(b.sfT)
	st.Sb.TInto(b.sbT)
}

// endAttrPhase transposes the swept residuals back into the solver state
// for the next node phase.
func (b *sweepBufs) endAttrPhase(st *state) {
	b.sfT.TInto(st.Sf)
	b.sbT.TInto(st.Sb)
}

// invPositive returns 1/s for s > 0 and 0 otherwise: a zero column has no
// least-squares step, and the sweeps skip coordinates whose cached inverse
// norm is 0.
func invPositive(s float64) float64 {
	if s > 0 {
		return 1 / s
	}
	return 0
}

// refine runs iters full CCD sweeps (Algorithm 4 Lines 2-14 serially,
// Algorithm 8 when nb > 1). The two half-sweeps synchronize between each
// other, exactly as PSVDCCD requires; within a half-sweep the row blocks
// are independent, so the parallel result is identical to the serial one
// for the same starting state.
func refine(st *state, iters, nb int) {
	n := st.Xf.Rows
	d := st.Y.Rows
	bufs := newSweepBufs(st)
	for it := 0; it < iters; it++ {
		bufs.nodePhase(st)
		mat.ParallelRanges(n, nb, func(lo, hi int) {
			ccdNodeSweep(st, bufs.yNormInv, bufs.yColT, lo, hi)
		})
		bufs.attrPhase(st)
		mat.ParallelRanges(d, nb, func(lo, hi int) {
			ccdAttrSweep(st, bufs.xNormInv, bufs.xfColT, bufs.xbColT, bufs.sfT, bufs.sbT, lo, hi)
		})
		bufs.endAttrPhase(st)
	}
}

// Objective evaluates Equation (4), the total squared error
// ‖Xf·Yᵀ − F'‖² + ‖Xb·Yᵀ − B'‖², recomputed from scratch (not from the
// maintained residuals) so tests can cross-check residual maintenance.
func Objective(e *Embedding, f, b *mat.Dense) float64 {
	rf := mat.MulBT(e.Xf, e.Y)
	rf.Sub(f)
	rb := mat.MulBT(e.Xb, e.Y)
	rb.Sub(b)
	nf := rf.FrobeniusNorm()
	nbn := rb.FrobeniusNorm()
	return nf*nf + nbn*nbn
}
