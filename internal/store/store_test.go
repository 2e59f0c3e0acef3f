package store

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"pane/internal/mat"
	"pane/internal/sparse"
)

func randomCSR(rng *rand.Rand, r, c int, density float64) *sparse.CSR {
	var entries []sparse.Entry
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				entries = append(entries, sparse.Entry{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return sparse.NewCSR(r, c, entries)
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(rng, 37, 23, 0.2)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.R != m.R || got.C != m.C || got.NNZ() != m.NNZ() {
		t.Fatal("shape mismatch after round trip")
	}
	if !got.ToDense().Equal(m.ToDense(), 0) {
		t.Fatal("contents changed")
	}
}

func TestCSREmpty(t *testing.T) {
	m := sparse.NewCSR(5, 3, nil)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.R != 5 || got.C != 3 {
		t.Fatal("empty CSR round trip failed")
	}
}

func TestCSRBadMagic(t *testing.T) {
	var buf bytes.Buffer
	m := mat.New(2, 2)
	if err := WriteDense(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSR(&buf); err == nil {
		t.Fatal("dense payload accepted as CSR")
	}
}

func TestCSRTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomCSR(rng, 10, 10, 0.3)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadCSR(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated CSR accepted")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := mat.New(19, 7)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	var buf bytes.Buffer
	if err := WriteDense(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m, 0) {
		t.Fatal("dense round trip changed values")
	}
}

func TestDenseBadMagic(t *testing.T) {
	var buf bytes.Buffer
	m := sparse.NewCSR(1, 1, []sparse.Entry{{Row: 0, Col: 0, Val: 1}})
	if err := WriteCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDense(&buf); err == nil {
		t.Fatal("CSR payload accepted as dense")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	d := mat.New(6, 4)
	for i := range d.Data {
		d.Data[i] = rng.Float64()
	}
	dp := filepath.Join(dir, "m.dense")
	if err := SaveDenseFile(dp, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDenseFile(dp)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d, 0) {
		t.Fatal("dense file round trip failed")
	}
	c := randomCSR(rng, 8, 8, 0.4)
	cp := filepath.Join(dir, "m.csr")
	if err := SaveCSRFile(cp, c); err != nil {
		t.Fatal(err)
	}
	gotC, err := LoadCSRFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !gotC.ToDense().Equal(c.ToDense(), 0) {
		t.Fatal("CSR file round trip failed")
	}
	if _, err := LoadDenseFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCSRColumnRangeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomCSR(rng, 6, 6, 0.5)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Corrupt a column index beyond the declared width.
	raw := buf.Bytes()
	// Header: 4x8 bytes; row pointers: 7x8 bytes; columns follow (int32).
	colOff := 32 + 56
	raw[colOff] = 0xFF
	raw[colOff+1] = 0xFF
	raw[colOff+2] = 0xFF
	raw[colOff+3] = 0x7F
	if _, err := ReadCSR(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt column index accepted")
	}
}

// TestCSRRowPointerValidation: row pointers must start at 0, never
// decrease, and end at nnz — otherwise the first row walk slices out of
// range. Each case rewrites the pointers of a valid 2x2, nnz=2 section.
func TestCSRRowPointerValidation(t *testing.T) {
	m := sparse.NewCSR(2, 2, []sparse.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 2}})
	var buf bytes.Buffer
	if err := WriteCSR(&buf, m); err != nil {
		t.Fatal(err)
	}
	for _, ptr := range [][3]uint64{
		{0, 5, 2}, // past nnz, then back down
		{1, 1, 2}, // does not start at 0
		{0, 2, 1}, // decreasing, tail short of nnz
		{0, 3, 3}, // tail past nnz
	} {
		raw := append([]byte(nil), buf.Bytes()...)
		for i, v := range ptr {
			order.PutUint64(raw[32+8*i:], v) // after the 4-word header
		}
		if got, err := ReadCSR(bytes.NewReader(raw)); err == nil {
			t.Fatalf("row pointers %v accepted: %+v", ptr, got.RowPtr)
		}
	}
	// The valid pointers still read.
	if _, err := ReadCSR(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}
