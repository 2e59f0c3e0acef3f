// Package svd provides the dense decompositions PANE's solver needs:
// Householder QR, one-sided Jacobi SVD for small matrices, and a
// randomized truncated SVD (subspace iteration in the style of
// Musco & Musco, NeurIPS 2015 — reference [30] of the paper) for the tall
// n x d affinity matrices. Everything is stdlib-only.
package svd

import (
	"math"

	"pane/internal/mat"
)

// QR computes a thin QR factorization of a (r x c, r >= c) using
// Householder reflections: a = q·r with q having orthonormal columns
// (r x c) and rr upper triangular (c x c).
//
// The factorization runs on aᵀ, so every column of a — and every
// Householder vector and every column of q — is one contiguous row, and
// each reflector dot and update is a single mat.Dot / mat.AxpyVec call.
// Those kernels follow the repository's canonical summation order, so q
// and rr are bit-identical across instruction sets and build tags.
func QR(a *mat.Dense) (q, rr *mat.Dense) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("svd: QR requires rows >= cols")
	}
	// Row k of wt is column k of a; below the diagonal (entries k+1..m-1)
	// it ends up holding the k-th Householder vector, whose entry k is an
	// implicit 1.
	wt := a.T()
	betas := make([]float64, n)
	for k := 0; k < n; k++ {
		wk := wt.Row(k)
		norm := math.Sqrt(mat.Dot(wk[k:], wk[k:]))
		if norm == 0 {
			continue // betas[k] = 0: the reflector is the identity
		}
		alpha := wk[k]
		sign := 1.0
		if alpha < 0 {
			sign = -1.0
		}
		v0 := alpha + sign*norm
		// Normalize so v[k] = 1 implicitly; beta = v0 / (sign*norm) form.
		betas[k] = v0 / (sign * norm)
		inv := 1 / v0
		vk := wk[k+1:]
		for i := range vk {
			vk[i] *= inv
		}
		wk[k] = -sign * norm // R diagonal entry
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			wj := wt.Row(j)
			// float64() rounds s before wj[k] -= s: without it the
			// compiler may fuse the product into the subtraction (arm64).
			s := float64((wj[k] + mat.Dot(vk, wj[k+1:])) * betas[k])
			wj[k] -= s
			mat.AxpyVec(-s, vk, wj[k+1:])
		}
	}
	rr = mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rr.Set(i, j, wt.At(j, i))
		}
	}
	// Accumulate Q by applying the reflectors to the identity, in reverse;
	// row j of qt is column j of q. Reflector k only touches entries k..m-1,
	// and columns j < k are still e_j there, zero from row k down, so the
	// reflector leaves them unchanged and they are skipped.
	qt := mat.New(n, m)
	for j := 0; j < n; j++ {
		qt.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		if betas[k] == 0 {
			continue
		}
		vk := wt.Row(k)[k+1:]
		for j := k; j < n; j++ {
			qj := qt.Row(j)
			s := float64((qj[k] + mat.Dot(vk, qj[k+1:])) * betas[k])
			qj[k] -= s
			mat.AxpyVec(-s, vk, qj[k+1:])
		}
	}
	return qt.T(), rr
}

// Orthonormalize returns a matrix with orthonormal columns spanning the
// column space of a (the Q factor of a thin QR).
func Orthonormalize(a *mat.Dense) *mat.Dense {
	q, _ := QR(a)
	return q
}
