package store

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"pane/internal/core"
	"pane/internal/mat"
	"pane/internal/sparse"
)

func testBundle(withLabels bool) *Bundle {
	rng := rand.New(rand.NewSource(7))
	randDense := func(r, c int) *mat.Dense {
		m := mat.New(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	n, d, half := 5, 3, 2
	adj := sparse.NewCSR(n, n, []sparse.Entry{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 2, Val: 1},
		{Row: 2, Col: 0, Val: 1}, {Row: 3, Col: 4, Val: 1},
	})
	attr := sparse.NewCSR(n, d, []sparse.Entry{
		{Row: 0, Col: 0, Val: 0.5}, {Row: 1, Col: 2, Val: 2},
		{Row: 4, Col: 1, Val: 1},
	})
	b := &Bundle{
		ModelVersion: 42,
		Cfg:          core.Config{K: 2 * half, Alpha: 0.5, Eps: 0.015, Threads: 3, Seed: 9},
		Xf:           randDense(n, half),
		Xb:           randDense(n, half),
		Y:            randDense(d, half),
		Adj:          adj,
		Attr:         attr,
	}
	if withLabels {
		b.Labels = [][]int{{0}, {1, 2}, {}, {0, 1}, {}}
	}
	return b
}

func TestBundleRoundTrip(t *testing.T) {
	for _, withLabels := range []bool{false, true} {
		b := testBundle(withLabels)
		var buf bytes.Buffer
		if err := WriteBundle(&buf, b); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.ModelVersion != 42 {
			t.Fatalf("version %d", got.ModelVersion)
		}
		if got.Cfg != b.Cfg {
			t.Fatalf("config %+v != %+v", got.Cfg, b.Cfg)
		}
		for name, pair := range map[string][2]*mat.Dense{
			"Xf": {got.Xf, b.Xf}, "Xb": {got.Xb, b.Xb}, "Y": {got.Y, b.Y},
		} {
			if !pair[0].Equal(pair[1], 0) {
				t.Fatalf("%s not bit-equal after round trip", name)
			}
		}
		if got.Adj.NNZ() != b.Adj.NNZ() || got.Attr.NNZ() != b.Attr.NNZ() {
			t.Fatal("CSR nnz changed")
		}
		if withLabels {
			if len(got.Labels) != 5 || len(got.Labels[1]) != 2 || got.Labels[3][1] != 1 {
				t.Fatalf("labels %v", got.Labels)
			}
		} else if got.Labels != nil {
			t.Fatalf("labels should be nil, got %v", got.Labels)
		}

		// Deterministic: re-serializing the read bundle is byte-identical.
		var buf2 bytes.Buffer
		if err := WriteBundle(&buf2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("bundle serialization not deterministic")
		}
	}
}

func TestBundleIndexMetaRoundTrip(t *testing.T) {
	b := testBundle(false)
	b.Index = &IndexMeta{IVF: true, NList: 128, NProbe: 16, Seed: -7, Shards: 8}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index == nil || *got.Index != *b.Index {
		t.Fatalf("index meta %+v, want %+v", got.Index, b.Index)
	}
	var buf2 bytes.Buffer
	if err := WriteBundle(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("index meta serialization not deterministic")
	}
}

// legacyBundle encodes b in an older bundle format v (1 through 5): the
// current layout cut down to the sections and index words that version
// carries, with its format word. Version 5 has the current layout.
func legacyBundle(tb testing.TB, b *Bundle, v int) []byte {
	tb.Helper()
	bare := *b
	bare.Index, bare.Quant, bare.Half = nil, nil, nil
	var out, idx bytes.Buffer
	if err := WriteBundle(&out, &bare); err != nil {
		tb.Fatal(err)
	}
	out.Truncate(out.Len() - 24) // the three absent-section flags
	if v >= 2 {
		if err := writeIndexMeta(&idx, b.Index); err != nil {
			tb.Fatal(err)
		}
		words := map[int]int{2: 5, 3: 6, 4: 8, 5: 9}[v] // flag + config words
		if b.Index == nil {
			words = 1
		}
		out.Write(idx.Bytes()[:8*words])
	}
	if v >= 4 {
		if err := writeQuant(&out, b.Quant); err != nil {
			tb.Fatal(err)
		}
	}
	if v >= 5 {
		if err := writeHalf(&out, b.Half); err != nil {
			tb.Fatal(err)
		}
	}
	raw := out.Bytes()
	order.PutUint64(raw[8:16], uint64(v))
	return raw
}

func TestBundleReadsFormatV1(t *testing.T) {
	// A v1 bundle ends after the CSR sections: no index, quantized, or
	// fp16 sections. Readers must keep accepting it.
	b := testBundle(true)
	b.Index = &IndexMeta{IVF: true, NList: 64}
	got, err := ReadBundle(bytes.NewReader(legacyBundle(t, b, 1)))
	if err != nil {
		t.Fatalf("v1 bundle rejected: %v", err)
	}
	if got.Index != nil || got.Quant != nil {
		t.Fatalf("v1 bundle grew sections: %+v %+v", got.Index, got.Quant)
	}
	if got.ModelVersion != b.ModelVersion || !got.Xf.Equal(b.Xf, 0) {
		t.Fatal("v1 payload mangled")
	}
}

func TestBundleReadsFormatV2(t *testing.T) {
	// A v2 bundle carries the index section WITHOUT the trailing
	// shard/quantize/rerank/fp16 words (and no payloads); the reader must
	// accept it and default the shard count to 0 (unsharded).
	b := testBundle(false)
	b.Index = &IndexMeta{IVF: true, NList: 64, NProbe: 8, Seed: 5, Shards: 4}
	got, err := ReadBundle(bytes.NewReader(legacyBundle(t, b, 2)))
	if err != nil {
		t.Fatalf("v2 bundle rejected: %v", err)
	}
	want := *b.Index
	want.Shards = 0
	if got.Index == nil || *got.Index != want {
		t.Fatalf("v2 index meta %+v, want %+v", got.Index, want)
	}
	if !got.Xf.Equal(b.Xf, 0) {
		t.Fatal("v2 payload mangled")
	}
}

func TestBundleReadsFormatV3(t *testing.T) {
	// A v3 bundle ends after the shard word: no quantize/rerank words, no
	// quantized payload. The reader must default both to "unquantized".
	b := testBundle(false)
	b.Index = &IndexMeta{IVF: true, NList: 64, NProbe: 8, Seed: 5, Shards: 4, Quantize: true, Rerank: 6}
	got, err := ReadBundle(bytes.NewReader(legacyBundle(t, b, 3)))
	if err != nil {
		t.Fatalf("v3 bundle rejected: %v", err)
	}
	want := *b.Index
	want.Quantize, want.Rerank = false, 0
	if got.Index == nil || *got.Index != want {
		t.Fatalf("v3 index meta %+v, want %+v", got.Index, want)
	}
	if got.Quant != nil {
		t.Fatalf("v3 bundle grew a quantized payload")
	}
	if !got.Xf.Equal(b.Xf, 0) {
		t.Fatal("v3 payload mangled")
	}
}

func TestBundleQuantPayloadRoundTrip(t *testing.T) {
	b := testBundle(false)
	n, d, half := b.Xf.Rows, b.Y.Rows, b.Xf.Cols
	b.Index = &IndexMeta{IVF: true, NList: 4, NProbe: 2, Seed: 1, Shards: 2, Quantize: true, Rerank: 3}
	mk := func(rows int) QuantizedMatrix {
		qm := QuantizedMatrix{Rows: rows, Dim: half,
			Codes: make([]int8, rows*half),
			Scale: make([]float32, rows), Base: make([]float32, rows)}
		for i := range qm.Codes {
			qm.Codes[i] = int8(i*7 - 100)
		}
		for i := range qm.Scale {
			qm.Scale[i] = float32(i) * 0.25
			qm.Base[i] = float32(i) - 1.5
		}
		return qm
	}
	b.Quant = &QuantPayload{Links: mk(n), Attrs: mk(d)}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Quant == nil {
		t.Fatal("payload lost")
	}
	for name, pair := range map[string][2]QuantizedMatrix{
		"links": {got.Quant.Links, b.Quant.Links}, "attrs": {got.Quant.Attrs, b.Quant.Attrs},
	} {
		g, w := pair[0], pair[1]
		if g.Rows != w.Rows || g.Dim != w.Dim {
			t.Fatalf("%s shape %dx%d", name, g.Rows, g.Dim)
		}
		for i := range w.Codes {
			if g.Codes[i] != w.Codes[i] {
				t.Fatalf("%s code %d differs", name, i)
			}
		}
		for i := range w.Scale {
			if g.Scale[i] != w.Scale[i] || g.Base[i] != w.Base[i] {
				t.Fatalf("%s params %d differ", name, i)
			}
		}
	}
	// Deterministic resave.
	var buf2 bytes.Buffer
	if err := WriteBundle(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("quantized payload serialization not deterministic")
	}
	// A payload whose shape disagrees with the model must be rejected.
	b.Quant.Links.Rows = n + 1
	b.Quant.Links.Codes = make([]int8, (n+1)*half)
	b.Quant.Links.Scale = make([]float32, n+1)
	b.Quant.Links.Base = make([]float32, n+1)
	var bad bytes.Buffer
	if err := WriteBundle(&bad, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(bytes.NewReader(bad.Bytes())); err == nil {
		t.Fatal("mismatched quantized payload accepted")
	}
}

// payloadBundle is testBundle with an index configuration and both
// payloads, every code an arbitrary bit pattern.
func payloadBundle() *Bundle {
	b := testBundle(false)
	n, d, half := b.Xf.Rows, b.Y.Rows, b.Xf.Cols
	b.Index = &IndexMeta{IVF: true, NList: 4, NProbe: 2, Seed: 1, Shards: 2, Quantize: true, Rerank: 3, FP16: true}
	qm := func(rows int) QuantizedMatrix {
		m := QuantizedMatrix{Rows: rows, Dim: half,
			Codes: make([]int8, rows*half),
			Scale: make([]float32, rows), Base: make([]float32, rows)}
		for i := range m.Codes {
			m.Codes[i] = int8(i*3 - 7)
		}
		for i := range m.Scale {
			m.Scale[i] = float32(i) * 0.5
			m.Base[i] = float32(i)
		}
		return m
	}
	hm := func(rows int) HalfMatrix {
		m := HalfMatrix{Rows: rows, Dim: half, Codes: make([]uint16, rows*half)}
		for i := range m.Codes {
			m.Codes[i] = uint16(i*0x1234 + 0x3C00)
		}
		return m
	}
	b.Quant = &QuantPayload{Links: qm(n), Attrs: qm(d)}
	b.Half = &HalfPayload{Links: hm(n), Attrs: hm(d)}
	return b
}

// sameQuant and sameHalf compare one payload matrix exactly.
func sameQuant(a, b QuantizedMatrix) bool {
	return a.Rows == b.Rows && a.Dim == b.Dim && slices.Equal(a.Codes, b.Codes) &&
		slices.Equal(a.Scale, b.Scale) && slices.Equal(a.Base, b.Base)
}

func sameHalf(a, b HalfMatrix) bool {
	return a.Rows == b.Rows && a.Dim == b.Dim && slices.Equal(a.Codes, b.Codes)
}

func TestBundleReadsFormatV4(t *testing.T) {
	// A v4 bundle carries the quantize/rerank words and the quantized
	// payload but predates the fp16 flag and half payload. Its link codes
	// encode the old candidate transform Z = Xb·G, so the reader drops
	// them and keeps the attribute codes.
	b := payloadBundle()
	got, err := ReadBundle(bytes.NewReader(legacyBundle(t, b, 4)))
	if err != nil {
		t.Fatalf("v4 bundle rejected: %v", err)
	}
	want := *b.Index
	want.FP16 = false
	if got.Index == nil || *got.Index != want {
		t.Fatalf("v4 index meta %+v, want %+v", got.Index, want)
	}
	if got.Half != nil {
		t.Fatal("v4 bundle grew an fp16 payload")
	}
	if got.Quant == nil || !sameQuant(got.Quant.Links, QuantizedMatrix{}) ||
		!sameQuant(got.Quant.Attrs, b.Quant.Attrs) {
		t.Fatalf("v4 quantized payload %+v, want link codes dropped and attr codes kept", got.Quant)
	}
	if !got.Xf.Equal(b.Xf, 0) {
		t.Fatal("v4 payload mangled")
	}
}

// TestBundleReadsFormatV5: a v5 bundle has the current layout, but both
// payloads' link codes encode Z = Xb·G. The reader drops them, keeps the
// attribute codes, and the bundle re-saves as v6 without link codes.
func TestBundleReadsFormatV5(t *testing.T) {
	b := payloadBundle()
	got, err := ReadBundle(bytes.NewReader(legacyBundle(t, b, 5)))
	if err != nil {
		t.Fatalf("v5 bundle rejected: %v", err)
	}
	if got.Index == nil || *got.Index != *b.Index {
		t.Fatalf("v5 index meta %+v, want %+v", got.Index, b.Index)
	}
	if got.Quant == nil || got.Quant.Links.Rows != 0 || !sameQuant(got.Quant.Attrs, b.Quant.Attrs) {
		t.Fatalf("v5 quantized payload %+v", got.Quant)
	}
	if got.Half == nil || got.Half.Links.Rows != 0 || !sameHalf(got.Half.Attrs, b.Half.Attrs) {
		t.Fatalf("v5 fp16 payload %+v", got.Half)
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, got); err != nil {
		t.Fatal(err)
	}
	again, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-saved v5 bundle rejected: %v", err)
	}
	if again.Quant.Links.Rows != 0 || !sameHalf(again.Half.Attrs, b.Half.Attrs) {
		t.Fatal("re-saved v5 bundle changed its payloads")
	}
	// The current format keeps the link codes.
	buf.Reset()
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	cur, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameQuant(cur.Quant.Links, b.Quant.Links) || !sameHalf(cur.Half.Links, b.Half.Links) {
		t.Fatal("v6 bundle lost its link codes")
	}
}

func TestBundleHalfPayloadRoundTrip(t *testing.T) {
	b := testBundle(false)
	n, d, half := b.Xf.Rows, b.Y.Rows, b.Xf.Cols
	b.Index = &IndexMeta{IVF: true, NList: 4, NProbe: 2, Seed: 1, Shards: 2, FP16: true}
	mk := func(rows int) HalfMatrix {
		hm := HalfMatrix{Rows: rows, Dim: half, Codes: make([]uint16, rows*half)}
		for i := range hm.Codes {
			hm.Codes[i] = uint16(i*0x1234 + 0x3C00) // arbitrary bit patterns incl. high bits
		}
		return hm
	}
	b.Half = &HalfPayload{Links: mk(n), Attrs: mk(d)}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Half == nil {
		t.Fatal("fp16 payload lost")
	}
	if got.Index == nil || !got.Index.FP16 {
		t.Fatalf("fp16 flag lost: %+v", got.Index)
	}
	for name, pair := range map[string][2]HalfMatrix{
		"links": {got.Half.Links, b.Half.Links}, "attrs": {got.Half.Attrs, b.Half.Attrs},
	} {
		g, w := pair[0], pair[1]
		if g.Rows != w.Rows || g.Dim != w.Dim {
			t.Fatalf("%s shape %dx%d", name, g.Rows, g.Dim)
		}
		for i := range w.Codes {
			if g.Codes[i] != w.Codes[i] {
				t.Fatalf("%s code %d differs", name, i)
			}
		}
	}
	// Deterministic resave.
	var buf2 bytes.Buffer
	if err := WriteBundle(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("fp16 payload serialization not deterministic")
	}
	// A payload whose shape disagrees with the model must be rejected.
	b.Half.Links.Rows = n + 1
	b.Half.Links.Codes = make([]uint16, (n+1)*half)
	var bad bytes.Buffer
	if err := WriteBundle(&bad, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(bytes.NewReader(bad.Bytes())); err == nil {
		t.Fatal("mismatched fp16 payload accepted")
	}
}

func TestBundleFileAtomicSave(t *testing.T) {
	b := testBundle(true)
	path := filepath.Join(t.TempDir(), "m.pane")
	if err := SaveBundleFile(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ModelVersion != b.ModelVersion || !got.Xf.Equal(b.Xf, 0) {
		t.Fatal("file round trip changed the bundle")
	}
}

func TestBundleRejectsCorruption(t *testing.T) {
	b := testBundle(false)
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := ReadBundle(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Bad format version.
	bad = append([]byte(nil), raw...)
	bad[8] = 99
	if _, err := ReadBundle(bytes.NewReader(bad)); err == nil {
		t.Fatal("future format version accepted")
	}
	// Truncation anywhere must error, never panic.
	for _, cut := range []int{10, len(raw) / 2, len(raw) - 3} {
		if _, err := ReadBundle(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A row pointer past nnz in the adjacency section must be rejected
	// before anything walks the rows. The section follows the 10-word
	// header, the label flag, and the three dense sections (a 3-word
	// header each); its row pointers follow its own 4-word header.
	adjOff := 8*(10+1+3*3) + 8*(len(b.Xf.Data)+len(b.Xb.Data)+len(b.Y.Data))
	if got := order.Uint64(raw[adjOff:]); got != magicCSR {
		t.Fatalf("adjacency section not at offset %d (word %#x)", adjOff, got)
	}
	bad = append([]byte(nil), raw...)
	order.PutUint64(bad[adjOff+8*(4+1):], uint64(b.Adj.NNZ()+1))
	if _, err := ReadBundle(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt adjacency row pointer accepted")
	}
	// Invalid config (K = 0) must be rejected by validation.
	bad = append([]byte(nil), raw...)
	for i := 24; i < 32; i++ { // K field, little-endian
		bad[i] = 0
	}
	if _, err := ReadBundle(bytes.NewReader(bad)); err == nil {
		t.Fatal("zero K accepted")
	}
}

func TestReadLabelsRejectsOverflowingCounts(t *testing.T) {
	// Per-node counts of 2^63 sum (mod 2^64) to 0: a naive total check
	// passes and make() panics. The reader must error gracefully instead.
	var buf bytes.Buffer
	for _, v := range []uint64{1, 2, 1 << 63, 1 << 63} { // present, n, counts...
		if err := binaryWriteU64(&buf, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readLabels(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("overflowing label counts accepted")
	}
	// A giant node count must be rejected before allocating the counts slice.
	buf.Reset()
	for _, v := range []uint64{1, 1 << 40} {
		if err := binaryWriteU64(&buf, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readLabels(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("giant label count accepted")
	}
}

func binaryWriteU64(buf *bytes.Buffer, v uint64) error {
	var b [8]byte
	order.PutUint64(b[:], v)
	_, err := buf.Write(b[:])
	return err
}
