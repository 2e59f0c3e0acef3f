// Package index provides top-k maximum-inner-product retrieval over a
// fixed set of candidate vectors — the serving-path complement to the
// training code in internal/core. Two backends implement one interface:
//
//   - Exact scans a flat candidate matrix with a parallel blocked kernel
//     and is always correct. For the link model the matrix is the
//     backward embedding Xb and the query the transformed vector
//     Xf[u]·G (core.LinkScorer.QueryInto), so a query is one O(k²)
//     transform plus a single scan.
//   - IVF adds a k-means coarse quantizer (an inverted file over the same
//     vectors) for approximate sub-linear search; the recall/latency
//     trade-off is controlled per query by the number of probed lists.
//   - SQ8 keeps an additional per-row 8-bit scalar-quantized copy of the
//     candidate matrix: scans read one eighth of the bytes (the scaling
//     wall on large candidate sets is memory bandwidth, not compute),
//     and an exact float64 re-rank of the rerank*k best survivors makes
//     the final ranking near-exact — and fully exact when the re-rank
//     window covers every candidate.
//   - IVFSQ combines the two: IVF's probed-list pruning over SQ8's
//     quantized rows, with the same exact re-rank.
//
// Both backends are immutable after construction and safe for concurrent
// searches. internal/engine builds one index per model version and swaps
// whole sets atomically, so a query never observes a half-built
// structure. Each backend additionally offers a copy-on-write Refresh
// constructor for dynamic updates: given the new candidate matrix and the
// set of rows that actually changed, it produces the next immutable
// generation touching only O(Δ) state — re-wrapping the patched matrix
// (Exact), re-encoding only dirty rows (SQ8), or moving only dirty rows
// between inverted lists against the frozen coarse quantizer (IVF/IVFSQ)
// — while sharing all unchanged storage with the previous generation. All rankings use core.Better ordering (score descending,
// ties by ascending id), which makes exact and IVF results bit-for-bit
// comparable: IVF probing every list returns exactly the exact backend's
// answer.
package index

import (
	"pane/internal/core"
)

// Backend kinds reported by Kind().
const (
	KindExact   = "exact"
	KindIVF     = "ivf"
	KindSQ8     = "sq8"
	KindIVFSQ   = "ivfsq"
	KindFP16    = "fp16"
	KindIVFFP16 = "ivffp16"
)

// Options tunes one Search call.
type Options struct {
	// NProbe is the number of inverted lists an IVF search scans. Values
	// <= 0 mean the index's build-time default; values above nlist are
	// clamped. The exact and SQ8 backends ignore it.
	NProbe int
	// Rerank overrides a quantized backend's survivor multiplier: the
	// approximate scan keeps the Rerank*k best candidates by quantized
	// score and the exact re-rank picks the final k among them. Values
	// <= 0 mean the index's build-time default; the unquantized backends
	// ignore it.
	Rerank int
	// Skip, when non-nil, excludes candidate ids from the result (e.g.
	// the query node itself in link prediction).
	Skip func(id int) bool
}

// Index is a top-k retrieval structure over Len() candidate vectors of
// dimension Dim(). Search returns the k candidates with the largest inner
// product against q in core.Better order (highest score first, ties by
// ascending id); k is clamped to the candidate count. For Exact (and IVF
// probing every list) fewer than k results mean the candidate set after
// Skip was exhausted; a partial-probe IVF search may return fewer simply
// because the probed lists held fewer candidates.
type Index interface {
	Search(q []float64, k int, opt Options) []core.Scored
	Len() int
	Dim() int
	Kind() string
}
