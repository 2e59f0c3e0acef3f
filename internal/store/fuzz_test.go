package store

import (
	"bytes"
	"testing"

	"pane/internal/mat"
	"pane/internal/sparse"
)

// bundleSeeds are the fuzz corpus seeds: the bundles the round-trip
// tests write (with and without labels, index configuration, and both
// payloads), every legacy format the reader accepts, and truncated cuts
// of the richest one.
func bundleSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(b *Bundle) []byte {
		var buf bytes.Buffer
		if err := WriteBundle(&buf, b); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	full := encode(payloadBundle())
	seeds := [][]byte{
		encode(testBundle(false)),
		encode(testBundle(true)),
		full,
		full[:len(full)/2],
		full[:len(full)-1],
		{},
	}
	for v := 1; v <= 5; v++ {
		seeds = append(seeds, legacyBundle(tb, payloadBundle(), v))
	}
	return seeds
}

// FuzzReadBundle feeds arbitrary bytes to the bundle decoder — the parser
// of snapshot files and of the /bundle stream a follower bootstraps from.
// It must either return an error or a bundle whose sections can be
// walked end to end without a panic.
func FuzzReadBundle(f *testing.F) {
	for _, seed := range bundleSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		walkBundle(t, b)
	})
}

// walkBundle walks every section the way consumers do — dense rows, CSR
// rows with each column resolved against the dense rows it indexes, row
// sums, and the payload matrices row by row — and checks that every row
// it reaches has its section's width.
func walkBundle(t *testing.T, b *Bundle) {
	width := func(what string, i, got, want int) {
		if got != want {
			t.Fatalf("%s row %d has %d entries, want %d", what, i, got, want)
		}
	}
	for _, d := range []*mat.Dense{b.Xf, b.Xb, b.Y} {
		for i := 0; i < d.Rows; i++ {
			width("dense", i, len(d.Row(i)), d.Cols)
		}
	}
	// Adjacency columns index node rows, attribute columns Y rows.
	for _, sec := range []struct {
		m    *sparse.CSR
		cols *mat.Dense
	}{{b.Adj, b.Xf}, {b.Attr, b.Y}} {
		width("row sums", 0, len(sec.m.RowSums()), sec.m.R)
		for i := 0; i < sec.m.R; i++ {
			cols, vals := sec.m.Row(i)
			width("CSR", i, len(vals), len(cols))
			for _, c := range cols {
				width("indexed", int(c), len(sec.cols.Row(int(c))), sec.cols.Cols)
			}
		}
	}
	if q := b.Quant; q != nil {
		for _, qm := range []QuantizedMatrix{q.Links, q.Attrs} {
			for i := 0; i < qm.Rows; i++ {
				width("sq8", i, len(qm.Codes[i*qm.Dim:(i+1)*qm.Dim])+len(qm.Scale[i:i+1])+len(qm.Base[i:i+1]), qm.Dim+2)
			}
		}
	}
	if h := b.Half; h != nil {
		for _, hm := range []HalfMatrix{h.Links, h.Attrs} {
			for i := 0; i < hm.Rows; i++ {
				width("fp16", i, len(hm.Codes[i*hm.Dim:(i+1)*hm.Dim]), hm.Dim)
			}
		}
	}
}
