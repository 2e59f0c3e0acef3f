package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
)

// frameSeeds are the fuzz corpus seeds: the golden epoch-0 frame (with
// its CRC filled in), an epoch-flagged frame, the two back to back, torn
// cuts of them, a CRC mismatch, and length words past maxPayload and at
// it over a short body.
func frameSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	golden := append([]byte(nil), epochlessGoldenFrame...)
	binary.LittleEndian.PutUint32(golden[4:], crc32.Checksum(golden[frameHeaderSize:], castagnoli))
	rec := testRecord(7)
	rec.Epoch = 2
	flagged, err := EncodeFrame(nil, rec)
	if err != nil {
		tb.Fatal(err)
	}
	badCRC := append([]byte(nil), golden...)
	badCRC[len(badCRC)-1] ^= 1
	oversized := append([]byte(nil), golden...)
	binary.LittleEndian.PutUint32(oversized, maxPayload+1)
	atMax := append([]byte(nil), golden...)
	binary.LittleEndian.PutUint32(atMax, maxPayload)
	return [][]byte{
		golden,
		flagged,
		append(append([]byte(nil), golden...), flagged...),
		golden[:3],
		golden[:frameHeaderSize+5],
		flagged[:len(flagged)-1],
		badCRC,
		oversized,
		atMax,
		{},
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder the WAL scan
// and the /replicate stream both use. It must never panic; it stops with
// io.EOF only at a frame boundary; and every frame it accepts re-encodes
// to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		off := 0
		for {
			rec, err := ReadFrame(br)
			if errors.Is(err, io.EOF) {
				if off != len(data) {
					t.Fatalf("io.EOF at offset %d of %d: not a frame boundary", off, len(data))
				}
				return
			}
			if err != nil {
				return // ErrTorn or a structural error: the stream ends here
			}
			enc, err := EncodeFrame(nil, rec)
			if err != nil {
				t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
			}
			if !bytes.HasPrefix(data[off:], enc) {
				t.Fatalf("frame at offset %d re-encodes to %x, consumed %x", off, enc, data[off:min(off+len(enc), len(data))])
			}
			off += len(enc)
		}
	})
}

// TestReadFrameBoundsAllocation: a header whose length word claims
// maxPayload over a short body is a torn frame, and reading it allocates
// on the order of the bytes present, not the gigabyte the header claims.
func TestReadFrameBoundsAllocation(t *testing.T) {
	frame := append([]byte(nil), epochlessGoldenFrame...)
	binary.LittleEndian.PutUint32(frame, maxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*payloadStep {
		t.Fatalf("reading a short frame allocated %d bytes", grew)
	}
}
