package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"pane/internal/graph"
)

// TestEpochFrameRoundTrip pins the epoch-bearing frame format: non-zero
// epochs survive encode/decode and re-encode byte-identically.
func TestEpochFrameRoundTrip(t *testing.T) {
	for _, epoch := range []uint32{1, 2, 1 << 20, 1<<32 - 1} {
		rec := testRecord(7)
		rec.Epoch = epoch
		frame, err := EncodeFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("epoch %d round trip: %+v != %+v", epoch, got, rec)
		}
		again, err := EncodeFrame(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("epoch %d re-encode differs", epoch)
		}
	}
}

// epochlessGoldenFrame is the epoch-less frame of {Version: 3, Edges: [(1,2)]}
// byte for byte, with the CRC word left zero.
var epochlessGoldenFrame = []byte{
	0x18, 0x00, 0x00, 0x00, // payload length = 24
	0x00, 0x00, 0x00, 0x00, // crc placeholder
	0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version 3
	0x01, 0x00, 0x00, 0x00, // 1 edge, no flag
	0x00, 0x00, 0x00, 0x00, // 0 attrs
	0x01, 0x00, 0x00, 0x00, // src 1
	0x02, 0x00, 0x00, 0x00, // dst 2
}

// TestEpochZeroFrameMatchesPR8Format: an epoch-0 record must encode
// without the flag or the epoch word — byte-identical to the epoch-less
// PR 8 frame — so old logs stay readable and unfailed deployments write
// unchanged bytes. The golden bytes pin the v1 layout literally.
func TestEpochZeroFrameMatchesPR8Format(t *testing.T) {
	rec := Record{Version: 3, Edges: []graph.Edge{{Src: 1, Dst: 2}}}
	frame, err := EncodeFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint32(frame[8+8:]); n&epochFlag != 0 {
		t.Fatalf("epoch-0 frame sets the epoch flag: count word %#x", n)
	}
	golden := epochlessGoldenFrame
	if !bytes.Equal(frame[:4], golden[:4]) || !bytes.Equal(frame[8:], golden[8:]) {
		t.Fatalf("epoch-0 frame diverged from the PR 8 layout:\n got %x\nwant %x (crc word free)", frame, golden)
	}
	// And an explicit flag with epoch word 0 is a writer bug, not a record.
	bad := append([]byte(nil), frame...)
	payload := bad[frameHeaderSize:]
	binary.LittleEndian.PutUint32(payload[8:], 1|epochFlag)
	grown := append(payload[:recordBaseSize:recordBaseSize], append([]byte{0, 0, 0, 0}, payload[recordBaseSize:]...)...)
	if _, err := decodePayload(grown); err == nil {
		t.Fatal("explicit epoch-0 flag accepted")
	}
}

// TestAppendEnforcesEpochMonotonicity: once a log holds an epoch-e
// record, appends from any earlier epoch fail with ErrEpochFenced — the
// deposed-leader write — while equal and later epochs extend it.
func TestAppendEnforcesEpochMonotonicity(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, l, 1, 3) // epoch 0
	rec := testRecord(4)
	rec.Epoch = 2
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if got := l.LastEpoch(); got != 2 {
		t.Fatalf("LastEpoch = %d, want 2", got)
	}
	old := testRecord(5)
	old.Epoch = 1
	if err := l.Append(old); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("stale-epoch append: err = %v, want ErrEpochFenced", err)
	}
	same := testRecord(5)
	same.Epoch = 2
	if err := l.Append(same); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen revalidates the epochs and keeps fencing.
	l, err = Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.LastEpoch(); got != 2 {
		t.Fatalf("LastEpoch after reopen = %d, want 2", got)
	}
	stale := testRecord(6)
	stale.Epoch = 1
	if err := l.Append(stale); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("stale-epoch append after reopen: err = %v, want ErrEpochFenced", err)
	}
	recs, err := l.ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs := []uint32{0, 0, 0, 2, 2}
	for i, rec := range recs {
		if rec.Epoch != wantEpochs[i] {
			t.Fatalf("record %d epoch = %d, want %d", i+1, rec.Epoch, wantEpochs[i])
		}
	}
}

// TestOpenRejectsEpochRegression: a log whose bytes regress the epoch
// mid-stream is corrupt (only a writer bug or tampering produces it).
func TestOpenRejectsEpochRegression(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	r1 := testRecord(1)
	r1.Epoch = 3
	if err := l.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-append a frame at an earlier epoch, bypassing Append's check.
	r2 := testRecord(2)
	r2.Epoch = 1
	frame, err := EncodeFrame(nil, r2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OSFS().OpenAppend(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{Sync: SyncNone}); err == nil {
		t.Fatal("epoch regression accepted on open")
	}
}
