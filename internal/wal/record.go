package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"pane/internal/graph"
)

// Record is one durable update: the graph delta an applied update carried
// and the model version that applying it produced. The version is the
// contiguity token of the whole replication design — a log replayed onto
// a bundle at version V must supply records V+1, V+2, ... with no gap,
// and a follower applies a record only when it extends its current
// version by exactly one.
type Record struct {
	Version uint64
	// Epoch is the fencing epoch of the leader that produced this record.
	// Failover promotes a follower at epoch+1; an engine refuses records
	// (and a log refuses appends) from any earlier epoch, so a deposed
	// leader that keeps writing can never land a record the promoted
	// lineage would accept — two epochs never share a version. Epoch-less
	// PR 8 logs decode as epoch 0.
	Epoch uint32
	Edges []graph.Edge
	Attrs []graph.AttrEntry
}

// Frame layout (everything little-endian, matching internal/store):
//
//	uint32 payload length
//	uint32 CRC-32C (Castagnoli) of the payload
//	payload:
//	  uint64 version
//	  uint32 edge count (bit 31 = epoch flag), uint32 attr count
//	  [uint32 epoch — only when the epoch flag is set]
//	  per edge:  uint32 src, uint32 dst
//	  per attr:  uint32 node, uint32 attr, float64 weight
//
// The checksum covers the payload only; the length word is validated
// structurally (a frame is accepted only if exactly length bytes follow
// and their CRC matches). Torn writes therefore fail closed: a partial
// frame at the tail of a segment can never be mistaken for a record.
//
// The epoch rides in spare headroom: edge counts never approach 2^31, so
// bit 31 of the count word versions the frame. Epoch-0 records encode
// without the flag or the epoch word — byte-identical to the PR 8
// format — which keeps old logs replayable and keeps a never-failed-over
// deployment's log bytes unchanged. A non-zero epoch sets the flag and
// inserts one uint32 after the counts.

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderSize = 8       // length + crc words
	recordBaseSize  = 16      // version + the two count words
	epochSize       = 4       // the epoch word, present only under epochFlag
	edgeSize        = 8       // two uint32s
	attrSize        = 16      // two uint32s + one float64
	maxPayload      = 1 << 30 // sanity bound; a real record is far smaller

	// epochFlag marks an epoch-bearing frame in bit 31 of the edge-count
	// word (counts never get near it).
	epochFlag = 1 << 31
)

// ErrTorn reports a structurally incomplete or checksum-failing frame —
// the expected disk state after a crash mid-write. Open truncates a torn
// tail; any other reader treats it as "the log ends here".
var ErrTorn = fmt.Errorf("wal: torn record")

// tornOr maps a mid-frame read failure: running out of bytes is the
// torn-tail crash signature, while any other error (EIO) is a live
// read failure that must surface as itself.
func tornOr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTorn
	}
	return err
}

// payloadSize returns the encoded payload size of rec.
func payloadSize(rec Record) int {
	n := recordBaseSize + edgeSize*len(rec.Edges) + attrSize*len(rec.Attrs)
	if rec.Epoch != 0 {
		n += epochSize
	}
	return n
}

// EncodeFrame appends rec's frame (header + payload) to dst and returns
// the extended slice. The encoding is deterministic, so re-encoding a
// decoded record reproduces the original bytes — which is what lets the
// /replicate endpoint stream records it read back from the log.
func EncodeFrame(dst []byte, rec Record) ([]byte, error) {
	for _, e := range rec.Edges {
		if e.Src < 0 || e.Dst < 0 || e.Src > math.MaxUint32 || e.Dst > math.MaxUint32 {
			return nil, fmt.Errorf("wal: edge (%d,%d) outside the uint32 id space", e.Src, e.Dst)
		}
	}
	for _, a := range rec.Attrs {
		if a.Node < 0 || a.Attr < 0 || a.Node > math.MaxUint32 || a.Attr > math.MaxUint32 {
			return nil, fmt.Errorf("wal: attr entry (%d,%d) outside the uint32 id space", a.Node, a.Attr)
		}
	}
	if len(rec.Edges) >= epochFlag || len(rec.Attrs) >= epochFlag {
		return nil, fmt.Errorf("wal: record v%d carries %d edges + %d attrs, past the count field",
			rec.Version, len(rec.Edges), len(rec.Attrs))
	}
	n := payloadSize(rec)
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize+n)...)
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint64(payload[0:], rec.Version)
	nEdgesWord := uint32(len(rec.Edges))
	off := recordBaseSize
	if rec.Epoch != 0 {
		nEdgesWord |= epochFlag
		binary.LittleEndian.PutUint32(payload[recordBaseSize:], rec.Epoch)
		off += epochSize
	}
	binary.LittleEndian.PutUint32(payload[8:], nEdgesWord)
	binary.LittleEndian.PutUint32(payload[12:], uint32(len(rec.Attrs)))
	for _, e := range rec.Edges {
		binary.LittleEndian.PutUint32(payload[off:], uint32(e.Src))
		binary.LittleEndian.PutUint32(payload[off+4:], uint32(e.Dst))
		off += edgeSize
	}
	for _, a := range rec.Attrs {
		binary.LittleEndian.PutUint32(payload[off:], uint32(a.Node))
		binary.LittleEndian.PutUint32(payload[off+4:], uint32(a.Attr))
		binary.LittleEndian.PutUint64(payload[off+8:], math.Float64bits(a.Weight))
		off += attrSize
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// ReadFrame decodes the next frame from br. It returns io.EOF at a clean
// record boundary, ErrTorn when the stream ends inside a frame or the
// checksum fails, and a descriptive error for a checksum-valid but
// structurally inconsistent payload (which only a writer bug produces).
func ReadFrame(br *bufio.Reader) (Record, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:1]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF // clean end: not a single byte of a next frame
		}
		// A real read error (EIO, injected fault) is neither a clean end
		// nor a torn tail: reporting it as ErrTorn would let a recovery
		// scan truncate perfectly good records behind a flaky read.
		return Record{}, err
	}
	if _, err := io.ReadFull(br, hdr[1:]); err != nil {
		return Record{}, tornOr(err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n < recordBaseSize || n > maxPayload {
		return Record{}, ErrTorn
	}
	payload, err := readPayload(br, int(n))
	if err != nil {
		return Record{}, tornOr(err)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return Record{}, ErrTorn
	}
	return decodePayload(payload)
}

// payloadStep bounds how far readPayload allocates ahead of the bytes it
// has actually read.
const payloadStep = 1 << 20

// readPayload reads exactly n bytes from r. The length word is untrusted
// (a torn tail, a corrupt segment, a hostile /replicate stream), so the
// buffer grows at most payloadStep ahead of the bytes that really arrive:
// a header claiming maxPayload on a short stream costs about a megabyte,
// not a gigabyte.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, payloadStep))
	for len(buf) < n {
		lo := len(buf)
		hi := lo + min(n-lo, payloadStep)
		buf = slices.Grow(buf, hi-lo)[:hi]
		if _, err := io.ReadFull(r, buf[lo:hi]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodePayload parses a checksum-verified payload.
func decodePayload(payload []byte) (Record, error) {
	rec := Record{Version: binary.LittleEndian.Uint64(payload[0:])}
	nEdgesWord := binary.LittleEndian.Uint32(payload[8:])
	nEdges := int(nEdgesWord &^ epochFlag)
	nAttrs := int(binary.LittleEndian.Uint32(payload[12:]))
	off := recordBaseSize
	want := recordBaseSize + edgeSize*nEdges + attrSize*nAttrs
	if nEdgesWord&epochFlag != 0 {
		want += epochSize
		if len(payload) < off+epochSize {
			return Record{}, fmt.Errorf("wal: record v%d sets the epoch flag on a %d-byte payload", rec.Version, len(payload))
		}
		rec.Epoch = binary.LittleEndian.Uint32(payload[off:])
		if rec.Epoch == 0 {
			return Record{}, fmt.Errorf("wal: record v%d carries an explicit epoch 0 (flag without epoch)", rec.Version)
		}
		off += epochSize
	}
	if want != len(payload) {
		return Record{}, fmt.Errorf("wal: record v%d declares %d edges + %d attrs (%d bytes) but carries %d",
			rec.Version, nEdges, nAttrs, want, len(payload))
	}
	if nEdges > 0 {
		rec.Edges = make([]graph.Edge, nEdges)
		for i := range rec.Edges {
			rec.Edges[i] = graph.Edge{
				Src: int(binary.LittleEndian.Uint32(payload[off:])),
				Dst: int(binary.LittleEndian.Uint32(payload[off+4:])),
			}
			off += edgeSize
		}
	}
	if nAttrs > 0 {
		rec.Attrs = make([]graph.AttrEntry, nAttrs)
		for i := range rec.Attrs {
			rec.Attrs[i] = graph.AttrEntry{
				Node:   int(binary.LittleEndian.Uint32(payload[off:])),
				Attr:   int(binary.LittleEndian.Uint32(payload[off+4:])),
				Weight: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:])),
			}
			off += attrSize
		}
	}
	return rec, nil
}
