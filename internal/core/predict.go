package core

import (
	"pane/internal/mat"
)

// AttrScore returns the attribute-inference score of Equation (21):
//
//	p(v, r) = Xf[v]·Y[r]ᵀ + Xb[v]·Y[r]ᵀ ≈ F[v,r] + B[v,r]
func (e *Embedding) AttrScore(v, r int) float64 {
	yr := e.Y.Row(r)
	return mat.Dot(e.Xf.Row(v), yr) + mat.Dot(e.Xb.Row(v), yr)
}

// LinkScorer precomputes the k/2 x k/2 Gram matrix G = YᵀY so that the
// link-prediction score of Equation (22),
//
//	p(u, v) = Σ_r (Xf[u]·Y[r]ᵀ)(Xb[v]·Y[r]ᵀ) = Xf[u]·G·Xb[v]ᵀ,
//
// costs O(k²) per queried pair instead of O(d·k).
type LinkScorer struct {
	e *Embedding
	g *mat.Dense
}

// NewLinkScorer builds the scorer for e.
func NewLinkScorer(e *Embedding) *LinkScorer {
	return &LinkScorer{e: e, g: mat.MulAT(e.Y, e.Y)}
}

// Directed returns p(u, v), the score of the directed edge u → v.
func (s *LinkScorer) Directed(u, v int) float64 {
	xu := s.e.Xf.Row(u)
	xv := s.e.Xb.Row(v)
	var total float64
	half := len(xu)
	for i := 0; i < half; i++ {
		if xu[i] == 0 {
			continue
		}
		gi := s.g.Row(i)
		var acc float64
		for j := 0; j < half; j++ {
			acc += gi[j] * xv[j]
		}
		total += xu[i] * acc
	}
	return total
}

// Undirected returns p(u,v) + p(v,u), the paper's score for undirected
// graphs (§5.3).
func (s *LinkScorer) Undirected(u, v int) float64 {
	return s.Directed(u, v) + s.Directed(v, u)
}

// QueryInto writes the link query vector of node u, q = Xf[u]·G, into
// dst (which must have length k/2) and returns it: q·Xb[v]ᵀ is p(u, v),
// so Xb itself is the candidate matrix for indexed link retrieval, just as
// Y is for attributes (AttrQueryInto). The transform is one mat.AxpyVec
// per nonzero Xf[u][i] over the rows of the symmetric G, which pins it to
// the canonical FMA-free rounding on every host and build tag — the scan
// fallback (TopKTargets) and the indexed exact tier therefore score every
// candidate with the same bits. Any previous contents of dst are
// overwritten, so pooled scratch is fine.
func (s *LinkScorer) QueryInto(u int, dst []float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	for i, x := range s.e.Xf.Row(u) {
		if x != 0 {
			mat.AxpyVec(x, s.g.Row(i), dst)
		}
	}
	return dst
}

// AttrQueryInto writes the attribute-inference query vector of node v,
// Xf[v] + Xb[v], into dst (which must have length k/2) and returns it:
// dst·Y[r]ᵀ equals AttrScore(v, r) up to floating-point association, so Y
// itself is the candidate matrix for indexed attribute retrieval.
func (e *Embedding) AttrQueryInto(v int, dst []float64) []float64 {
	xf, xb := e.Xf.Row(v), e.Xb.Row(v)
	for i := range dst {
		dst[i] = xf[i] + xb[i]
	}
	return dst
}

// ClassifierFeatures returns the per-node feature vectors used for node
// classification (§5.4): the forward and backward embeddings of each node
// are L2-normalized independently and concatenated into a length-K vector.
func (e *Embedding) ClassifierFeatures() *mat.Dense {
	n := e.Xf.Rows
	half := e.Xf.Cols
	out := mat.New(n, 2*half)
	for v := 0; v < n; v++ {
		dst := out.Row(v)
		copyNormalized(dst[:half], e.Xf.Row(v))
		copyNormalized(dst[half:], e.Xb.Row(v))
	}
	return out
}

func copyNormalized(dst, src []float64) {
	nrm := mat.Norm2(src)
	if nrm == 0 {
		copy(dst, src)
		return
	}
	inv := 1 / nrm
	for i, v := range src {
		dst[i] = v * inv
	}
}
