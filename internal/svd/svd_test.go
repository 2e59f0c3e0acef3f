package svd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pane/internal/mat"
)

func randomDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// lowRank returns an r x c matrix of exact rank k (with overwhelming
// probability).
func lowRank(rng *rand.Rand, r, c, k int) *mat.Dense {
	return mat.Mul(randomDense(rng, r, k), randomDense(rng, k, c))
}

func isOrthonormalCols(m *mat.Dense, tol float64) bool {
	g := mat.MulAT(m, m)
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(g.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 20, 7)
	q, r := QR(a)
	if !isOrthonormalCols(q, 1e-10) {
		t.Fatal("Q columns not orthonormal")
	}
	if mat.Mul(q, r).MaxAbsDiff(a) > 1e-10 {
		t.Fatal("QR does not reconstruct A")
	}
	// R must be upper triangular.
	for i := 1; i < r.Rows; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(r.At(i, j)) > 1e-12 {
				t.Fatalf("R[%d,%d] = %v below diagonal", i, j, r.At(i, j))
			}
		}
	}
}

func TestQRSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 9, 9)
	q, r := QR(a)
	if mat.Mul(q, r).MaxAbsDiff(a) > 1e-10 {
		t.Fatal("square QR reconstruction failed")
	}
}

func TestQRRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := lowRank(rng, 15, 6, 2)
	q, r := QR(a)
	if mat.Mul(q, r).MaxAbsDiff(a) > 1e-9 {
		t.Fatal("rank-deficient QR reconstruction failed")
	}
}

func TestQRPropertyReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(8)
		r := c + rng.Intn(20)
		a := randomDense(rng, r, c)
		q, rr := QR(a)
		return mat.Mul(q, rr).MaxAbsDiff(a) < 1e-9 && isOrthonormalCols(q, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestJacobiReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(rng, 12, 8)
	res := Jacobi(a)
	if res.Reconstruct().MaxAbsDiff(a) > 1e-9 {
		t.Fatal("Jacobi SVD does not reconstruct")
	}
	if !isOrthonormalCols(res.U, 1e-9) || !isOrthonormalCols(res.V, 1e-9) {
		t.Fatal("singular vectors not orthonormal")
	}
	for i := 1; i < len(res.S); i++ {
		if res.S[i] > res.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", res.S)
		}
	}
	for _, s := range res.S {
		if s < 0 {
			t.Fatalf("negative singular value %v", s)
		}
	}
}

func TestJacobiWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomDense(rng, 5, 11)
	res := Jacobi(a)
	if res.Reconstruct().MaxAbsDiff(a) > 1e-9 {
		t.Fatal("wide Jacobi SVD does not reconstruct")
	}
}

func TestJacobiKnownValues(t *testing.T) {
	// diag(3, 2) has singular values {3, 2}.
	a := mat.FromRows([][]float64{{3, 0}, {0, 2}})
	res := Jacobi(a)
	if math.Abs(res.S[0]-3) > 1e-12 || math.Abs(res.S[1]-2) > 1e-12 {
		t.Fatalf("singular values = %v, want [3 2]", res.S)
	}
}

func TestJacobiFrobeniusIdentity(t *testing.T) {
	// ||A||_F² == Σ σᵢ².
	rng := rand.New(rand.NewSource(6))
	a := randomDense(rng, 10, 6)
	res := Jacobi(a)
	var ss float64
	for _, s := range res.S {
		ss += s * s
	}
	f := a.FrobeniusNorm()
	if math.Abs(ss-f*f) > 1e-8 {
		t.Fatalf("sum σ² = %v, ||A||_F² = %v", ss, f*f)
	}
}

func TestRandSVDExactOnLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := lowRank(rng, 60, 25, 4)
	res := RandSVD(a, 4, 3, rng, 1)
	if res.Reconstruct().MaxAbsDiff(a) > 1e-7 {
		t.Fatal("RandSVD failed to recover an exactly rank-4 matrix")
	}
}

func TestRandSVDNearOptimal(t *testing.T) {
	// On a general matrix the rank-k randomized approximation should be
	// close to the optimal rank-k error given by exact SVD.
	rng := rand.New(rand.NewSource(8))
	a := randomDense(rng, 40, 20)
	// Give it decaying spectrum so truncation is meaningful.
	exact := Jacobi(a)
	for i := range exact.S {
		exact.S[i] *= math.Pow(0.5, float64(i))
	}
	a = exact.Reconstruct()
	k := 5
	opt := Jacobi(a).Truncate(k).Reconstruct()
	optErr := errNorm(a, opt)
	approx := RandSVD(a, k, 4, rng, 1).Reconstruct()
	apxErr := errNorm(a, approx)
	if apxErr > optErr*1.1+1e-9 {
		t.Fatalf("randomized error %v much worse than optimal %v", apxErr, optErr)
	}
}

func errNorm(a, b *mat.Dense) float64 {
	d := a.Clone()
	d.Sub(b)
	return d.FrobeniusNorm()
}

func TestRandSVDParallelMatchesSerial(t *testing.T) {
	// Tall enough for parMulATInto to sum several row chunks, so the
	// chunk order — not the worker count — fixes the summation order.
	base := rand.New(rand.NewSource(9))
	a := randomDense(base, 2*atChunkRows+50, 30)
	r1 := RandSVD(a, 6, 2, rand.New(rand.NewSource(42)), 1)
	for _, nb := range []int{2, 3, 4} {
		r2 := RandSVD(a, 6, 2, rand.New(rand.NewSource(42)), nb)
		if !sameBits(r1.U.Data, r2.U.Data) || !sameBits(r1.V.Data, r2.V.Data) || !sameBits(r1.S, r2.S) {
			t.Fatalf("nb=%d: parallel RandSVD is not bit-identical to serial for the same seed", nb)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestRandSVDUnitaryV(t *testing.T) {
	// GreedyInit's key observation requires VᵀV = I — check it holds for
	// the randomized factorization too.
	rng := rand.New(rand.NewSource(10))
	a := lowRank(rng, 30, 12, 6)
	res := RandSVD(a, 6, 3, rng, 1)
	if !isOrthonormalCols(res.V, 1e-9) {
		t.Fatal("V is not column-orthonormal")
	}
	if !isOrthonormalCols(res.U, 1e-9) {
		t.Fatal("U is not column-orthonormal")
	}
}

func TestRandSVDTruncationSmallerThanRequested(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomDense(rng, 6, 3)
	res := RandSVD(a, 10, 2, rng, 1) // k > min dimension
	if len(res.S) > 3 {
		t.Fatalf("rank %d exceeds min dimension 3", len(res.S))
	}
}

func TestUScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := lowRank(rng, 20, 10, 3)
	res := RandSVD(a, 3, 3, rng, 1)
	us := res.UScaled()
	// UΣ·Vᵀ must reconstruct like Reconstruct().
	if mat.MulBT(us, res.V).MaxAbsDiff(res.Reconstruct()) > 1e-10 {
		t.Fatal("UScaled inconsistent with Reconstruct")
	}
}

func TestOrthonormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomDense(rng, 25, 6)
	q := Orthonormalize(a)
	if !isOrthonormalCols(q, 1e-10) {
		t.Fatal("Orthonormalize output not orthonormal")
	}
}

// TestQRHouseholderContract holds QR to its contract on the shapes the
// solver feeds it: QᵀQ = I to 1e-12, Q·R = A to 1e-12 relative to A's
// largest entry, and R exactly zero below the diagonal.
func TestQRHouseholderContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// The power-iteration shape: A·Aᵀ·Q for an A whose singular values
	// span 1e-8…1, so the columns are nearly dependent.
	illConditioned := func() *mat.Dense {
		const m, n = 400, 24
		u := Orthonormalize(randomDense(rng, m, n))
		for j := 0; j < n; j++ {
			s := math.Pow(1e-8, float64(j)/float64(n-1))
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)*s)
			}
		}
		a := mat.MulBT(u, Orthonormalize(randomDense(rng, n, n)))
		q := Orthonormalize(randomDense(rng, m, n))
		return mat.Mul(a, mat.MulAT(a, q))
	}
	zeroColumn := func() *mat.Dense {
		a := randomDense(rng, 60, 9)
		for i := 0; i < a.Rows; i++ {
			a.Set(i, 4, 0)
		}
		return a
	}
	cases := []struct {
		name string
		a    *mat.Dense
	}{
		{"tall", randomDense(rng, 3000, 40)},
		{"ill-conditioned", illConditioned()},
		{"rank-deficient", lowRank(rng, 200, 20, 5)},
		{"zero column", zeroColumn()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, r := QR(tc.a)
			if !isOrthonormalCols(q, 1e-12) {
				t.Error("QᵀQ deviates from I by more than 1e-12")
			}
			scale := 0.0
			for _, v := range tc.a.Data {
				scale = math.Max(scale, math.Abs(v))
			}
			if d := mat.Mul(q, r).MaxAbsDiff(tc.a); d > 1e-12*scale {
				t.Errorf("‖QR − A‖max = %g, largest |A| entry %g", d, scale)
			}
			for i := 1; i < r.Rows; i++ {
				for j := 0; j < i; j++ {
					if r.At(i, j) != 0 {
						t.Fatalf("R[%d,%d] = %g below the diagonal", i, j, r.At(i, j))
					}
				}
			}
		})
	}
}

// BenchmarkQRTall factorizes one SMGreedyInit block at the paper-default
// size: 25,000 rows (n = 50k over two blocks) by k/2 + oversample = 72
// columns.
func BenchmarkQRTall(b *testing.B) {
	a := randomDense(rand.New(rand.NewSource(1)), 25000, 72)
	for b.Loop() {
		QR(a)
	}
}
