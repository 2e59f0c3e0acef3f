package svd

import (
	"math/rand"

	"pane/internal/mat"
)

// Oversample is the extra sketch width used by RandSVD beyond the target
// rank. A handful of extra columns dramatically improves the accuracy of
// the leading singular subspace at negligible cost.
const Oversample = 8

// RandSVD computes an approximate rank-k SVD of a (r x c) using Gaussian
// sketching followed by q power iterations with QR re-orthonormalization
// — simultaneous subspace iteration, the practical variant of the
// randomized block Krylov method of Musco & Musco [30] that Algorithm 3
// cites. rng drives the sketch so results are reproducible.
//
// The procedure:
//  1. Ω ← c x (k+p) Gaussian; Y ← a·Ω; Q ← orth(Y)
//  2. repeat q times: Q ← orth(a·(aᵀ·Q))
//  3. B ← Qᵀ·a  ((k+p) x c, small); exact Jacobi SVD of B
//  4. U ← Q·U_B, truncate to rank k.
//
// nb parallelizes the dense products over row blocks. Results for a given
// seed are bit-identical regardless of nb: every output row of a·X has one
// writer, and aᵀ·X sums fixed-size row chunks in chunk order (see
// parMulATInto).
func RandSVD(a *mat.Dense, k, q int, rng *rand.Rand, nb int) Result {
	r, c := a.Rows, a.Cols
	p := k + Oversample
	if p > c {
		p = c
	}
	if p > r {
		p = r
	}
	if k > p {
		k = p
	}
	// Sketch.
	omega := mat.New(c, p)
	for i := range omega.Data {
		omega.Data[i] = rng.NormFloat64()
	}
	y := mat.New(r, p)
	mat.ParMulInto(y, a, omega, nb)
	qm := Orthonormalize(y)
	// Power iterations sharpen the subspace toward the top singular vectors.
	z := mat.New(c, p)
	for it := 0; it < q; it++ {
		parMulATInto(z, a, qm, nb)
		mat.ParMulInto(y, a, z, nb)
		qm = Orthonormalize(y)
	}
	// Project and decompose the small matrix exactly.
	b := mat.New(p, c)
	parMulATInto(b, qm, a, nb) // b = qmᵀ · a
	small := Jacobi(b)
	u := mat.ParMul(qm, small.U, nb)
	return Result{U: u, S: small.S, V: small.V}.Truncate(k)
}

// atChunkRows is the row-chunk height of parMulATInto. It is a constant,
// not a function of nb, so the chunk partials — and the order they are
// summed in — are the same for every worker count.
const atChunkRows = 2048

// parMulATInto computes dst = aᵀ*b (a is r x c, b is r x p, dst c x p).
// The rows are cut into atChunkRows-high chunks, each chunk's partial
// aᵀ*b is computed on its own, nb chunks at a time in parallel, and the
// partials are added into dst in chunk order. The serial path runs the
// same chunks and the same additions, so the result is bit-identical for
// every nb.
func parMulATInto(dst, a, b *mat.Dense, nb int) {
	if dst.Rows != a.Cols || dst.Cols != b.Cols || a.Rows != b.Rows {
		panic("svd: parMulATInto shape mismatch")
	}
	nb = max(nb, 1)
	chunks := (a.Rows + atChunkRows - 1) / atChunkRows
	parts := make([]*mat.Dense, nb)
	dst.Zero()
	for first := 0; first < chunks; first += nb {
		round := min(nb, chunks-first)
		mat.ParallelRanges(round, round, func(lo, hi int) {
			for w := lo; w < hi; w++ {
				r0 := (first + w) * atChunkRows
				r1 := min(r0+atChunkRows, a.Rows)
				parts[w] = mat.MulAT(a.RowView(r0, r1), b.RowView(r0, r1))
			}
		})
		for _, p := range parts[:round] {
			dst.AddScaled(1, p)
		}
	}
}
