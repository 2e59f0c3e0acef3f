package engine

// Sharded per-version top-k index lifecycle. An Engine with indexing
// enabled partitions the candidate matrices — Xb for links (n rows), Y
// for attributes (d rows), both views of the model's own factors — into
// S contiguous row shards. Each shard owns an exact backend (and
// optionally the IVF, SQ8/IVFSQ and fp16 tiers) over its block only,
// published through its own atomic pointer and rebuilt by its own worker
// goroutine: after an update, S independent, smaller rebuilds overlap
// instead of one O(n) blocking build. All of a shard's enabled representations are built before the
// shard publishes, so the tiers can never serve mixed versions.
//
// A query resolves the model first, then accepts the shard set only if
// EVERY shard's published index matches that model version exactly — a
// consistent cut. Anything else (disabled, some shard still building, or
// built for a different generation) falls back to the model's brute-force
// scan path, so a query never mixes shards from two generations and is
// never answered by a stale index: between an update landing and the last
// shard publishing, queries degrade to the scan (reported as backend
// "scan") but keep answering at the current model version. Accepted
// queries fan out across the shards in parallel and merge through
// core.TopK, which keeps sharded exact answers bit-for-bit identical to
// single-shard exact.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pane/internal/core"
	"pane/internal/index"
	"pane/internal/mat"
	"pane/internal/obs"
	"pane/internal/store"
)

// Query modes accepted by the top-k paths.
const (
	ModeExact   = "exact"   // exact answer: indexed scan, or brute force mid-rebuild
	ModeIVF     = "ivf"     // approximate answer from the IVF backend when fresh
	ModeSQ8     = "sq8"     // quantized flat scan + exact re-rank
	ModeIVFSQ   = "ivfsq"   // quantized inverted-file scan + exact re-rank
	ModeFP16    = "fp16"    // half-precision flat scan, no re-rank
	ModeIVFFP16 = "ivffp16" // half-precision inverted-file scan, no re-rank
)

// Backend labels reported with every top-k answer.
const (
	BackendExact   = "exact"   // precomputed candidate matrix, parallel blocked scan
	BackendIVF     = "ivf"     // inverted-file approximate search
	BackendSQ8     = "sq8"     // int8 quantized scan, exact re-rank
	BackendIVFSQ   = "ivfsq"   // quantized inverted-file scan, exact re-rank
	BackendFP16    = "fp16"    // binary16 flat scan, no re-rank
	BackendIVFFP16 = "ivffp16" // binary16 inverted-file scan, no re-rank
	BackendScan    = "scan"    // per-query brute force; no fresh index (disabled or mid-rebuild)
)

// IndexConfig selects and tunes the per-version indexes an Engine
// maintains. The zero value enables the exact backend only, unsharded;
// defaults are resolved against the model at build time.
type IndexConfig struct {
	// IVF additionally builds the approximate backend.
	IVF bool
	// Quantize additionally builds the SQ8 quantized tier: an int8 copy
	// of each shard's candidate rows scanned at ~1/8 the memory traffic,
	// re-ranked exactly. With IVF also set, the per-list IVFSQ variant is
	// built alongside (sharing the IVF's k-means, so it costs one extra
	// quantization pass, not a second clustering).
	Quantize bool
	// Rerank is the quantized survivor multiplier: an SQ8/IVFSQ query
	// re-ranks the Rerank*k best quantized scores exactly. 0 means
	// index.DefaultRerank.
	Rerank int
	// FP16 additionally builds the half-precision tier: a binary16 copy
	// of each shard's candidate rows scanned at half the memory traffic
	// of float64, served WITHOUT exact re-rank (11-bit significands keep
	// recall@10 at ≈ 0.999 on embedding workloads). With IVF also set,
	// the per-list IVFFP16 variant is built alongside, sharing the IVF's
	// k-means like IVFSQ does.
	FP16 bool
	// NList is the IVF coarse cluster count per shard; 0 means
	// ~sqrt(shard rows).
	NList int
	// NProbe is the default number of IVF lists probed per query in each
	// shard; 0 means max(1, nlist/8). Queries can override it per request.
	NProbe int
	// Threads is the index build/search parallelism; 0 follows the model
	// config's Threads. Builds divide it across concurrently rebuilding
	// shards.
	Threads int
	// Seed drives k-means determinism; 0 follows the model config's Seed.
	Seed int64
	// Shards is the number of contiguous row shards the candidate
	// matrices are split into; values <= 1 mean one shard, and values
	// above the row count are clamped. Each shard rebuilds independently
	// and queries fan out across all of them.
	Shards int
}

// validate rejects nonsensical index configurations at engine
// construction with a descriptive error — misconfiguration used to be
// silently clamped at scattered build sites, which hid operator typos
// until query time. rows is the candidate (node) row count the shard
// layout will partition. Zero values keep their documented "use the
// default" meaning throughout.
func (c *IndexConfig) validate(rows int) error {
	if c.Shards < 0 {
		return fmt.Errorf("engine: shard count must be >= 1, got %d", c.Shards)
	}
	if rows > 0 && c.Shards > rows {
		return fmt.Errorf("engine: shard count %d exceeds the %d candidate rows (each shard needs at least one row)",
			c.Shards, rows)
	}
	if c.Rerank < 0 {
		return fmt.Errorf("engine: rerank must be >= 1, got %d (0 selects the default, %d)",
			c.Rerank, index.DefaultRerank)
	}
	if c.NList < 0 {
		return fmt.Errorf("engine: nlist must be >= 1, got %d (0 selects ~sqrt(shard rows))", c.NList)
	}
	if c.NProbe < 0 {
		return fmt.Errorf("engine: nprobe must be >= 1, got %d (0 selects nlist/8)", c.NProbe)
	}
	if c.Threads < 0 {
		return fmt.Errorf("engine: index threads must be >= 1, got %d (0 follows the model config)", c.Threads)
	}
	return nil
}

// WithIndex enables per-version top-k indexing with the given config.
func WithIndex(cfg IndexConfig) Option {
	return func(e *Engine) {
		c := cfg
		e.idxCfg = &c
	}
}

// WithoutIndex disables indexing even if a restored bundle carries an
// index configuration (engine.Open applies bundle settings first, then
// caller options).
func WithoutIndex() Option {
	return func(e *Engine) { e.idxCfg = nil }
}

// WithFallbackIndex enables indexing with cfg only when no configuration
// was set earlier in the option list — notably when a restored bundle
// did not record one. It lets a server default to indexed serving while
// still honoring explicit bundle or caller settings.
func WithFallbackIndex(cfg IndexConfig) Option {
	return func(e *Engine) {
		if e.idxCfg == nil {
			c := cfg
			e.idxCfg = &c
		}
	}
}

// WithShards overrides the shard count of whatever index configuration
// is in effect at this point in the option list — typically one restored
// from a bundle — without touching its other settings. An explicit count
// below 1 is a construction error (a config literal's zero Shards still
// means "one shard"); counts above the row count fail validation at
// construction. No-op when indexing is disabled.
func WithShards(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			e.fail(fmt.Errorf("engine: WithShards requires a shard count >= 1, got %d", n))
			return
		}
		if e.idxCfg != nil {
			e.idxCfg.Shards = n
		}
	}
}

// WithManualIndexRebuild turns off the automatic asynchronous rebuild
// after updates; callers invoke RebuildIndex themselves. Tests use this
// to pin the "update applied, index not yet republished" state
// deterministically.
func WithManualIndexRebuild() Option {
	return func(e *Engine) { e.idxManual = true }
}

// shardIdx is one shard's immutable index generation, valid for exactly
// one model version. All ids it returns are global (see index.Shift).
// Every enabled representation is built BEFORE the shardIdx is published
// through its slot, so a query can never observe a shard whose exact tier
// is at one version and whose quantized tier is at another. A generation
// produced by incremental refresh shares unchanged storage (quantized
// codes, inverted lists) with its predecessor; a shard with no dirty rows
// shares everything and republishing it is O(1).
type shardIdx struct {
	version uint64
	links   tiers // over Xb[lo:hi); the query vector is Xf[u]·G
	attrs   tiers // over Y[alo:ahi); zero when the shard has no attr rows
}

// tiers is one candidate space's backends within a shard generation. The
// exact tier is always built; the others are nil unless configured (ivfsq
// and ivffp additionally need the IVF).
type tiers struct {
	exact, ivf, sq, ivfsq, fp16, ivffp index.Index
}

// get returns the tier serving backend (the exact tier for BackendExact).
func (t *tiers) get(backend string) index.Index {
	switch backend {
	case BackendIVF:
		return t.ivf
	case BackendSQ8:
		return t.sq
	case BackendIVFSQ:
		return t.ivfsq
	case BackendFP16:
		return t.fp16
	case BackendIVFFP16:
		return t.ivffp
	}
	return t.exact
}

// shardPending is one shard's accumulated rebuild obligation: the model
// version the delta reaches (0 = nothing pending) and the dirty rows —
// coalesced across every update since the shard last published — that
// carry the published index to it. linksFull/attrsFull poison a space
// into a full rebuild (full-sweep model updates move every row).
type shardPending struct {
	target    uint64
	linksFull bool
	attrsFull bool
	links     map[int]struct{} // global Xb row ids inside this shard's range
	attrs     map[int]struct{} // global Y row ids inside this shard's range
}

// idxDelta is one published update's dirty-row report, handed from apply
// to the shard scheduler, which splits it across the per-shard pendings.
type idxDelta struct {
	target       uint64
	linksFull    bool
	attrsFull    bool
	links, attrs []int
	rows         int // total dirty rows, for monitoring
}

// shardSet is the sharded serving-index state of one Engine: the fixed
// shard layout (node and attribute universes are fixed at training time,
// so the ranges never change), one published-index slot per shard, and
// the per-shard rebuild scheduling state.
type shardSet struct {
	linkRanges [][2]int // contiguous row ranges of Xb; one per shard
	attrRanges [][2]int // contiguous row ranges of Y; len <= len(linkRanges)
	slots      []atomic.Pointer[shardIdx]

	// Per-shard async rebuild scheduling, all under mu: at most one
	// worker goroutine runs per shard (running[s]); updates merge their
	// dirty rows into pending[s] instead of spawning, and a worker loops
	// until it exits with its pending empty — so every published version
	// is either seen by the running worker's next loop or triggers a
	// fresh worker, and a sustained update stream never piles up
	// goroutines (it collapses into one coalesced delta build per shard).
	// WaitForIndex waits on idleC for every shard to drain. buildMu
	// serializes the builds of one shard (worker vs. manual RebuildIndex)
	// without ever blocking other shards.
	mu      sync.Mutex
	idleC   *sync.Cond
	pending []shardPending
	running []bool
	buildMu []sync.Mutex
}

// newShardSet lays out s shards over n candidate rows and d attribute
// rows. SplitRanges clamps: more shards than rows collapses to one shard
// per row, and the attribute space may span fewer shards than the link
// space when d < n.
func newShardSet(n, d, s int) *shardSet {
	if s < 1 {
		s = 1
	}
	linkRanges := mat.SplitRanges(n, s)
	if len(linkRanges) == 0 { // n == 0: keep one empty shard so slots exist
		linkRanges = [][2]int{{0, 0}}
	}
	ss := &shardSet{
		linkRanges: linkRanges,
		attrRanges: mat.SplitRanges(d, len(linkRanges)),
		slots:      make([]atomic.Pointer[shardIdx], len(linkRanges)),
		pending:    make([]shardPending, len(linkRanges)),
		running:    make([]bool, len(linkRanges)),
		buildMu:    make([]sync.Mutex, len(linkRanges)),
	}
	ss.idleC = sync.NewCond(&ss.mu)
	return ss
}

// linkShard maps a global Xb row to its shard. SplitRanges uses equal
// ceil(n/S)-sized chunks (the last possibly shorter), so this is a
// division, not a search.
func (ss *shardSet) linkShard(r int) int {
	return r / (ss.linkRanges[0][1] - ss.linkRanges[0][0])
}

// attrShard maps a global Y row to the shard holding it.
func (ss *shardSet) attrShard(r int) int {
	return r / (ss.attrRanges[0][1] - ss.attrRanges[0][0])
}

// markLocked merges one update's delta into every shard's pending
// obligation. Every shard's target advances — a shard with no dirty rows
// still republishes (an O(1) storage-sharing republish) so the consistent
// cut reaches the new version. Callers hold mu.
func (ss *shardSet) markLocked(d idxDelta) {
	for s := range ss.pending {
		p := &ss.pending[s]
		p.target = d.target
		p.linksFull = p.linksFull || d.linksFull
		p.attrsFull = p.attrsFull || d.attrsFull
	}
	if !d.linksFull {
		for _, r := range d.links {
			p := &ss.pending[ss.linkShard(r)]
			if p.links == nil {
				p.links = make(map[int]struct{})
			}
			p.links[r] = struct{}{}
		}
	}
	if !d.attrsFull && len(ss.attrRanges) > 0 {
		for _, r := range d.attrs {
			p := &ss.pending[ss.attrShard(r)]
			if p.attrs == nil {
				p.attrs = make(map[int]struct{})
			}
			p.attrs[r] = struct{}{}
		}
	}
}

// remergeLocked returns a taken-but-unbuilt pending to shard s, unioning
// it with whatever accumulated meanwhile. Callers hold mu.
func (ss *shardSet) remergeLocked(s int, p shardPending) {
	cur := &ss.pending[s]
	if p.target > cur.target {
		cur.target = p.target
	}
	cur.linksFull = cur.linksFull || p.linksFull
	cur.attrsFull = cur.attrsFull || p.attrsFull
	cur.links = unionRows(cur.links, p.links)
	cur.attrs = unionRows(cur.attrs, p.attrs)
}

func unionRows(dst, src map[int]struct{}) map[int]struct{} {
	if dst == nil {
		return src
	}
	for r := range src {
		dst[r] = struct{}{}
	}
	return dst
}

// sortedRowsIn extracts the rows of set inside [lo, hi), ascending —
// the shape the index Refresh constructors take.
func sortedRowsIn(set map[int]struct{}, lo, hi int) []int {
	var out []int
	for r := range set {
		if r >= lo && r < hi {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// buildParams resolves the per-shard build knobs against the model config
// once per build cycle.
type buildParams struct {
	cfg     IndexConfig
	threads int
	ivfCfg  index.IVFConfig
}

func (e *Engine) shardBuildParams(m *Model) buildParams {
	cfg := *e.idxCfg
	threads := cfg.Threads
	if threads <= 0 {
		threads = m.Cfg.Threads
	}
	// Divide build parallelism across shards: their rebuilds overlap, so
	// each gets a slice of the budget rather than all of it.
	threads /= len(e.shards.slots)
	if threads < 1 {
		threads = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = m.Cfg.Seed
	}
	return buildParams{
		cfg:     cfg,
		threads: threads,
		ivfCfg: index.IVFConfig{
			NList: cfg.NList, NProbe: cfg.NProbe,
			Seed: seed, Threads: threads,
		},
	}
}

// buildShardIdx materializes shard s's indexes for m from scratch over
// the shard's own rows of each space, which is what makes S rebuilds
// S-times smaller than one monolithic build.
func (e *Engine) buildShardIdx(m *Model, s int) *shardIdx {
	bp := e.shardBuildParams(m)
	ss := e.shards
	si := &shardIdx{version: m.Version}
	lo, hi := ss.linkRanges[s][0], ss.linkRanges[s][1]
	si.links = e.buildTiers(m, spaceLinks, lo, hi, bp)
	if s < len(ss.attrRanges) {
		alo, ahi := ss.attrRanges[s][0], ss.attrRanges[s][1]
		si.attrs = e.buildTiers(m, spaceAttrs, alo, ahi, bp)
	}
	return si
}

// buildTiers builds every configured tier over rows [lo, hi) of one
// candidate space of m from scratch.
func (e *Engine) buildTiers(m *Model, space, lo, hi int, bp buildParams) tiers {
	data := m.candidates(space, lo, hi)
	t := tiers{exact: index.Shift(index.NewExact(data, bp.threads), lo)}
	if bp.cfg.IVF {
		iv := index.BuildIVF(data, bp.ivfCfg)
		t.ivf = index.Shift(iv, lo)
		if bp.cfg.Quantize {
			t.ivfsq = index.Shift(index.NewIVFSQ(iv, data, bp.cfg.Rerank), lo)
		}
		if bp.cfg.FP16 {
			t.ivffp = index.Shift(index.NewIVFFP16(iv, data), lo)
		}
	}
	if bp.cfg.Quantize {
		t.sq = index.Shift(e.buildSQ8(space, m.Version, data, lo, bp.cfg.Rerank, bp.threads), lo)
	}
	if bp.cfg.FP16 {
		t.fp16 = index.Shift(e.buildFP16(space, m.Version, data, lo, bp.threads), lo)
	}
	return t
}

// refreshShard produces shard s's next generation from base using p's
// dirty rows; see refreshTiers for the per-space choice. fullWork reports
// whether any space fell back to a from-scratch build.
func (e *Engine) refreshShard(m *Model, s int, base *shardIdx, p shardPending) (si *shardIdx, fullWork bool) {
	bp := e.shardBuildParams(m)
	ss := e.shards
	si = &shardIdx{version: m.Version}
	lo, hi := ss.linkRanges[s][0], ss.linkRanges[s][1]
	si.links, fullWork = e.refreshTiers(m, spaceLinks, lo, hi, base.links, p.linksFull, p.links, bp)
	if s < len(ss.attrRanges) {
		alo, ahi := ss.attrRanges[s][0], ss.attrRanges[s][1]
		var full bool
		si.attrs, full = e.refreshTiers(m, spaceAttrs, alo, ahi, base.attrs, p.attrsFull, p.attrs, bp)
		fullWork = fullWork || full
	}
	return si, fullWork
}

// refreshTiers carries one space's tiers over rows [lo, hi) from base to
// m, choosing between sharing (no dirty rows: the base tiers wrap a view
// of the previous model's matrix, whose rows in this range are
// bit-identical in m), incremental refresh (dirty fraction at or below
// the threshold), and a full rebuild (poisoned space or a delta past the
// threshold). Incremental refresh runs each tier's copy-on-write Refresh
// over a view of m's matrix; the IVF tier keeps its trained coarse
// quantizer, exactly as a frozen-quantizer full rebuild would assign
// every row. The bool reports a full rebuild.
func (e *Engine) refreshTiers(m *Model, space, lo, hi int, base tiers, poisoned bool, dirty map[int]struct{}, bp buildParams) (tiers, bool) {
	rows := sortedRowsIn(dirty, lo, hi)
	switch {
	case poisoned || float64(len(rows)) > e.refreshThreshold*float64(hi-lo):
		return e.buildTiers(m, space, lo, hi, bp), true
	case len(rows) == 0:
		return base, false
	}
	data := m.candidates(space, lo, hi)
	local := make([]int, len(rows))
	for j, r := range rows {
		local[j] = r - lo
	}
	t := tiers{exact: index.Shift(unshift(base.exact).(*index.Exact).Refresh(data), lo)}
	if base.ivf != nil {
		iv := unshift(base.ivf).(*index.IVF).Refresh(data, local)
		t.ivf = index.Shift(iv, lo)
		if base.ivfsq != nil {
			t.ivfsq = index.Shift(unshift(base.ivfsq).(*index.IVFSQ).Refresh(iv, data), lo)
		}
		if base.ivffp != nil {
			t.ivffp = index.Shift(unshift(base.ivffp).(*index.IVFFP16).Refresh(iv, data), lo)
		}
	}
	if base.sq != nil {
		t.sq = index.Shift(unshift(base.sq).(*index.SQ8).Refresh(data, local), lo)
	}
	if base.fp16 != nil {
		t.fp16 = index.Shift(unshift(base.fp16).(*index.FP16).Refresh(data, local), lo)
	}
	return t, false
}

// Candidate spaces: the matrices the shards index, and the two halves of
// a bundle's quantized and binary16 payloads (see buildSQ8).
const (
	spaceLinks = iota // the link candidate matrix Xb
	spaceAttrs        // the attribute candidate matrix Y
)

// candidates returns rows [lo, hi) of the model's candidate matrix for
// space — a view, not a copy.
func (m *Model) candidates(space, lo, hi int) *mat.Dense {
	if space == spaceAttrs {
		return m.Emb.Y.RowSlice(lo, hi)
	}
	return m.Emb.Xb.RowSlice(lo, hi)
}

// buildSQ8 builds one shard's SQ8 tier over full, the shard's block of
// candidate rows [lo, lo+full.Rows) of the given space. When a
// bundle-restored encoding matches this model version and shape, its row
// slice is reused instead of re-quantizing — per-row quantization makes
// the slice bit-identical to a fresh encoding, so restored and
// self-computed tiers are interchangeable; on any mismatch (newer model
// version, different shape) the payload is ignored and the rows are
// quantized fresh.
func (e *Engine) buildSQ8(space int, version uint64, full *mat.Dense, lo, rerank, threads int) *index.SQ8 {
	if rq := e.restoredQuant.Load(); rq != nil && rq.version == version {
		qm := &rq.links
		if space == spaceAttrs {
			qm = &rq.attrs
		}
		hi := lo + full.Rows
		if qm.Dim == full.Cols && hi <= qm.Rows {
			return index.NewSQ8FromCodes(full,
				qm.Codes[lo*qm.Dim:hi*qm.Dim], qm.Scale[lo:hi], qm.Base[lo:hi],
				rerank, threads)
		}
	}
	return index.NewSQ8(full, rerank, threads)
}

// buildFP16 builds one shard's binary16 tier over full, the shard's block
// of candidate rows [lo, lo+full.Rows) of the given space, reusing a
// bundle-restored encoding's row slice when it matches this model version
// and shape — the per-element encoding makes the slice bit-identical to a
// fresh encoding, exactly like buildSQ8's per-row reuse.
func (e *Engine) buildFP16(space int, version uint64, full *mat.Dense, lo, threads int) *index.FP16 {
	if rh := e.restoredHalf.Load(); rh != nil && rh.version == version {
		hm := &rh.links
		if space == spaceAttrs {
			hm = &rh.attrs
		}
		hi := lo + full.Rows
		if hm.Dim == full.Cols && hi <= hm.Rows {
			return index.NewFP16FromCodes(full, hm.Codes[lo*hm.Dim:hi*hm.Dim], threads)
		}
	}
	return index.NewFP16(full, threads)
}

// freshShards returns one consistent cut of the published shard indexes:
// every shard serving exactly m's version. Anything else (disabled, some
// shard still building, or a mixed generation set mid-catchup) returns
// nil and the caller scans — a query can never combine shards from two
// model versions.
func (e *Engine) freshShards(m *Model) []*shardIdx {
	ss := e.shards
	if ss == nil {
		return nil
	}
	out := make([]*shardIdx, len(ss.slots))
	for s := range ss.slots {
		si := ss.slots[s].Load()
		if si == nil || si.version != m.Version {
			return nil
		}
		out[s] = si
	}
	return out
}

// scheduleIndexRebuild merges one published update's dirty-row delta into
// every shard's pending obligation and ensures each shard has (or gets) a
// worker responsible for catching up. No-op when indexing is disabled or
// manual. Callers publish the new model BEFORE calling this, so marking
// afterwards guarantees the version is covered: a running worker re-checks
// its pending before exiting (under mu, so a concurrent mark either is
// seen by that check or observes running == false and spawns a new
// worker). A sustained update stream therefore collapses into at most one
// coalesced delta build behind the in-flight one per shard, with never
// more than one goroutine alive per shard.
func (e *Engine) scheduleIndexRebuild(d idxDelta) {
	if e.shards == nil {
		return
	}
	e.met.lastDelta.Set(float64(d.rows))
	if e.idxManual {
		return
	}
	ss := e.shards
	ss.mu.Lock()
	ss.markLocked(d)
	for s := range ss.slots {
		if !ss.running[s] {
			ss.running[s] = true
			go e.shardWorker(s)
		}
	}
	ss.mu.Unlock()
}

// shardWorker drains shard s's pending delta, building toward whatever
// model is current each iteration, and announces idleness on exit.
func (e *Engine) shardWorker(s int) {
	ss := e.shards
	for {
		ss.mu.Lock()
		p := ss.pending[s]
		if p.target == 0 {
			ss.running[s] = false
			ss.idleC.Broadcast()
			ss.mu.Unlock()
			return
		}
		ss.pending[s] = shardPending{}
		ss.mu.Unlock()
		if e.buildShard(s, p) {
			continue
		}
		// The model moved past p.target with its dirty mark still in
		// flight (apply publishes before marking). Building now would
		// publish the new version from a delta that does not cover it, so
		// put the taken delta back; if the missing mark landed meanwhile
		// the merged pending already reaches the current model and the
		// loop retries, otherwise exit and let the incoming mark — which
		// sees running == false — respawn the worker with the full delta.
		ss.mu.Lock()
		ss.remergeLocked(s, p)
		retry := ss.pending[s].target > p.target
		if !retry {
			ss.running[s] = false
			ss.idleC.Broadcast()
		}
		ss.mu.Unlock()
		if !retry {
			return
		}
	}
}

// buildShard brings shard s up to the engine's current model version by
// applying the taken pending delta p: an incremental refresh when the
// previous generation exists and p's dirty fraction is within the
// threshold, a full rebuild otherwise. It reports false — without
// building — when p does not describe reaching the current model (its
// mark is still in flight; see shardWorker). Redundant calls (shard
// already at or past the current version, e.g. a concurrent manual
// RebuildIndex won) return true immediately, so update bursts collapse
// into one build of the latest version per shard.
func (e *Engine) buildShard(s int, p shardPending) bool {
	ss := e.shards
	ss.buildMu[s].Lock()
	defer ss.buildMu[s].Unlock()
	m := e.Model()
	base := ss.slots[s].Load()
	if base != nil && base.version >= m.Version {
		return true
	}
	if m.Version != p.target {
		return false
	}
	// The pending delta accumulates every update since the shard last
	// published, so it covers all rows changed between base's version and
	// the current model — possibly more (rows a manual full rebuild
	// already absorbed), never less; refreshing a clean row recomputes the
	// identical values.
	var si *shardIdx
	fullWork := true
	t0 := time.Now()
	if base == nil {
		si = e.buildShardIdx(m, s)
	} else {
		si, fullWork = e.refreshShard(m, s, base, p)
	}
	d := time.Since(t0)
	if fullWork {
		e.met.buildFull.Inc()
		e.met.buildDurFull.Observe(d)
	} else {
		e.met.buildIncr.Inc()
		e.met.buildDurIncr.Observe(d)
	}
	ss.slots[s].Store(si)
	return true
}

// rebuildShardFull unconditionally brings shard s to the current model
// version with a from-scratch build (retraining the IVF coarse quantizer)
// unless it is already there.
func (e *Engine) rebuildShardFull(s int) {
	ss := e.shards
	ss.buildMu[s].Lock()
	defer ss.buildMu[s].Unlock()
	m := e.Model()
	if cur := ss.slots[s].Load(); cur != nil && cur.version >= m.Version {
		return
	}
	t0 := time.Now()
	ss.slots[s].Store(e.buildShardIdx(m, s))
	e.met.buildFull.Inc()
	e.met.buildDurFull.Observe(time.Since(t0))
}

// RebuildIndex synchronously builds and publishes every shard's index for
// the engine's current model version, rebuilding the shards concurrently.
// Shards already at or past that version are skipped. This is always a
// from-scratch build — the manual escape hatch from incremental refresh,
// and the path that re-trains each shard's IVF coarse quantizer.
func (e *Engine) RebuildIndex() {
	if e.shards == nil {
		return
	}
	var wg sync.WaitGroup
	for s := range e.shards.slots {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			e.rebuildShardFull(s)
		}(s)
	}
	wg.Wait()
}

// WaitForIndex blocks until every shard's asynchronous rebuild worker has
// drained its scheduled rebuilds, and is safe to call while further
// updates keep scheduling new ones. After it returns (and absent
// concurrent updates) every published shard matches the current model
// version — under automatic rebuilds, that is; with
// WithManualIndexRebuild nothing is ever scheduled, so it returns
// immediately and freshness is the caller's RebuildIndex responsibility.
func (e *Engine) WaitForIndex() {
	ss := e.shards
	if ss == nil {
		return
	}
	ss.mu.Lock()
	for ss.anyBusy() {
		ss.idleC.Wait()
	}
	ss.mu.Unlock()
}

// anyBusy reports whether any shard has a running worker or a pending
// rebuild. Callers hold mu.
func (ss *shardSet) anyBusy() bool {
	for s := range ss.running {
		if ss.running[s] || ss.pending[s].target != 0 {
			return true
		}
	}
	return false
}

// IndexStatus reports the serving-index state for monitoring.
type IndexStatus struct {
	Enabled bool `json:"enabled"`
	// Version is the model version served by the full shard set: the
	// minimum over the per-shard generations, 0 while any shard has yet
	// to publish. Queries use the index only when it equals the current
	// model version.
	Version uint64 `json:"version,omitempty"`
	IVF     bool   `json:"ivf,omitempty"`
	NList   int    `json:"nlist,omitempty"`  // per-shard IVF lists (first shard)
	NProbe  int    `json:"nprobe,omitempty"` // default probes per IVF query
	// Quantize reports whether the SQ8/IVFSQ tiers are built; Rerank is
	// their default exact-re-rank survivor multiplier.
	Quantize bool `json:"quantize,omitempty"`
	Rerank   int  `json:"rerank,omitempty"`
	// FP16 reports whether the binary16 tiers are built.
	FP16 bool `json:"fp16,omitempty"`
	// Shards is the shard count; ShardVersions the per-shard index
	// generations, exposing rebuild progress shard by shard (0 = not yet
	// published).
	Shards        int      `json:"shards,omitempty"`
	ShardVersions []uint64 `json:"shard_versions,omitempty"`
	// Update-path accounting: shard build cycles served by incremental
	// (delta) refresh vs from-scratch rebuild (initial builds and manual
	// RebuildIndex count as full), the dirty-row count of the most recent
	// update's delta, and the dirty-fraction threshold in effect. No
	// omitempty: 0 is a meaningful reading for every one of these (an
	// explicit threshold of 0 disables incremental refresh, and a zero
	// counter is a dashboard datum, not an absence).
	IncrementalRefreshes uint64  `json:"incremental_refreshes"`
	FullRebuilds         uint64  `json:"full_rebuilds"`
	LastDeltaRows        uint64  `json:"last_delta_rows"`
	RefreshThreshold     float64 `json:"refresh_threshold"`
}

// IndexStatus returns the current index state.
func (e *Engine) IndexStatus() IndexStatus {
	if e.shards == nil {
		return IndexStatus{}
	}
	ss := e.shards
	st := IndexStatus{
		Enabled:              true,
		IVF:                  e.idxCfg.IVF,
		Quantize:             e.idxCfg.Quantize,
		FP16:                 e.idxCfg.FP16,
		Shards:               len(ss.slots),
		ShardVersions:        make([]uint64, len(ss.slots)),
		IncrementalRefreshes: e.met.buildIncr.Value(),
		FullRebuilds:         e.met.buildFull.Value(),
		LastDeltaRows:        uint64(e.met.lastDelta.Value()),
		RefreshThreshold:     e.refreshThreshold,
	}
	if st.Quantize {
		st.Rerank = e.idxCfg.Rerank
		if st.Rerank <= 0 {
			st.Rerank = index.DefaultRerank
		}
	}
	minVer, complete := uint64(0), true
	for s := range ss.slots {
		si := ss.slots[s].Load()
		if si == nil {
			complete = false
			continue
		}
		st.ShardVersions[s] = si.version
		if minVer == 0 || si.version < minVer {
			minVer = si.version
		}
		if s == 0 && si.links.ivf != nil {
			if iv, ok := unshift(si.links.ivf).(*index.IVF); ok {
				st.NList = iv.NList()
				st.NProbe = iv.DefaultNProbe()
			}
		}
	}
	if complete {
		st.Version = minVer
	}
	return st
}

// assembleQuant reassembles the full-matrix SQ8 payload from a fresh
// consistent shard cut at m's version, or nil when any shard is stale or
// still building — the payload is an optional bundle section, and a
// loader just re-quantizes (bit-identically) without it. Because the
// encoding is per-row, concatenating the shards' blocks in shard order IS
// the whole matrix's encoding.
func (e *Engine) assembleQuant(m *Model) *store.QuantPayload {
	shards := e.freshShards(m)
	if shards == nil {
		return nil
	}
	qp := &store.QuantPayload{
		Links: store.QuantizedMatrix{Rows: m.Nodes(), Dim: m.Emb.Xf.Cols},
		Attrs: store.QuantizedMatrix{Rows: m.Attrs(), Dim: m.Emb.Xf.Cols},
	}
	appendSQ := func(qm *store.QuantizedMatrix, idx index.Index) bool {
		sq, ok := unshift(idx).(*index.SQ8)
		if !ok {
			return false
		}
		qm.Codes = append(qm.Codes, sq.Codes()...)
		qm.Scale = append(qm.Scale, sq.Scale()...)
		qm.Base = append(qm.Base, sq.Base()...)
		return true
	}
	for _, si := range shards {
		if si.links.sq == nil || !appendSQ(&qp.Links, si.links.sq) {
			return nil
		}
		if si.attrs.sq != nil && !appendSQ(&qp.Attrs, si.attrs.sq) {
			return nil
		}
	}
	if len(qp.Links.Scale) != qp.Links.Rows || len(qp.Attrs.Scale) != qp.Attrs.Rows {
		return nil // defensive: a partial assembly must not be persisted
	}
	return qp
}

// assembleHalf reassembles the full-matrix binary16 payload from a fresh
// consistent shard cut at m's version, or nil when any shard is stale or
// still building; same derived-state contract as assembleQuant — a loader
// without the payload just re-encodes bit-identically.
func (e *Engine) assembleHalf(m *Model) *store.HalfPayload {
	shards := e.freshShards(m)
	if shards == nil {
		return nil
	}
	hp := &store.HalfPayload{
		Links: store.HalfMatrix{Rows: m.Nodes(), Dim: m.Emb.Xf.Cols},
		Attrs: store.HalfMatrix{Rows: m.Attrs(), Dim: m.Emb.Xf.Cols},
	}
	appendFP := func(hm *store.HalfMatrix, idx index.Index) bool {
		fp, ok := unshift(idx).(*index.FP16)
		if !ok {
			return false
		}
		hm.Codes = append(hm.Codes, fp.Codes()...)
		return true
	}
	for _, si := range shards {
		if si.links.fp16 == nil || !appendFP(&hp.Links, si.links.fp16) {
			return nil
		}
		if si.attrs.fp16 != nil && !appendFP(&hp.Attrs, si.attrs.fp16) {
			return nil
		}
	}
	if len(hp.Links.Codes) != hp.Links.Rows*hp.Links.Dim ||
		len(hp.Attrs.Codes) != hp.Attrs.Rows*hp.Attrs.Dim {
		return nil // defensive: a partial assembly must not be persisted
	}
	return hp
}

// unshift unwraps index.Shift wrappers for status introspection.
func unshift(idx index.Index) index.Index {
	type unwrapper interface{ Unwrap() index.Index }
	for {
		u, ok := idx.(unwrapper)
		if !ok {
			return idx
		}
		idx = u.Unwrap()
	}
}

// TopKAnswer is one served top-k result with its provenance: the model
// version it was computed against and the backend that answered.
type TopKAnswer struct {
	Results []core.Scored
	Version uint64
	Backend string
}

// TopLinks answers a link-prediction top-k query through the sharded
// index when a fresh consistent shard set exists, falling back to the
// brute-force scan otherwise. mode is ModeExact (default when empty) or
// ModeIVF; nprobe overrides the per-shard IVF probe count when > 0. The
// query node itself is excluded.
func (e *Engine) TopLinks(u, k int, mode string, nprobe int) (TopKAnswer, error) {
	m := e.Model()
	shards := e.freshShards(m)
	res, backend, err := m.topLinks(shards, e.met, u, k, mode, nprobe)
	if err != nil {
		return TopKAnswer{}, err
	}
	return TopKAnswer{Results: res, Version: m.Version, Backend: backend}, nil
}

// TopAttrs answers an attribute-inference top-k query; see TopLinks for
// mode/nprobe semantics.
func (e *Engine) TopAttrs(v, k int, mode string, nprobe int) (TopKAnswer, error) {
	m := e.Model()
	shards := e.freshShards(m)
	res, backend, err := m.topAttrs(shards, e.met, v, k, mode, nprobe)
	if err != nil {
		return TopKAnswer{}, err
	}
	return TopKAnswer{Results: res, Version: m.Version, Backend: backend}, nil
}

// validateTopK checks the shared top-k query parameters.
func validateTopK(k int, mode string, nprobe int) (string, error) {
	if k < 1 {
		return "", fmt.Errorf("engine: k must be >= 1, got %d", k)
	}
	if mode == "" {
		mode = ModeExact
	}
	switch mode {
	case ModeExact, ModeIVF, ModeSQ8, ModeIVFSQ, ModeFP16, ModeIVFFP16:
	default:
		return "", fmt.Errorf("engine: unknown mode %q (want %q, %q, %q, %q, %q, or %q)",
			mode, ModeExact, ModeIVF, ModeSQ8, ModeIVFSQ, ModeFP16, ModeIVFFP16)
	}
	if nprobe < 0 {
		return "", fmt.Errorf("engine: nprobe must be >= 0 (0 means the index default), got %d", nprobe)
	}
	return mode, nil
}

// pickSubs selects one backend across a shard set's tiers of one space
// (space picks the links or attrs tiers of a shard). The choice is
// uniform across shards (every generation builds the same backends), so
// one backend label describes the whole fan-out. A mode whose backend was
// not built degrades along ivfsq → ivf → exact / sq8 → exact (and
// likewise ivffp16 → ivf → exact / fp16 → exact), mirroring how an IVF
// request on an exact-only index already served exact. Shards past the
// attribute row space contribute nil entries, which the fan-out skips.
func pickSubs(shards []*shardIdx, mode string, space func(*shardIdx) *tiers) ([]index.Index, string) {
	first := space(shards[0])
	backend := BackendExact
	switch {
	case mode == ModeIVFSQ && first.ivfsq != nil:
		backend = BackendIVFSQ
	case mode == ModeIVFFP16 && first.ivffp != nil:
		backend = BackendIVFFP16
	case (mode == ModeIVF || mode == ModeIVFSQ || mode == ModeIVFFP16) && first.ivf != nil:
		backend = BackendIVF
	case mode == ModeSQ8 && first.sq != nil:
		backend = BackendSQ8
	case mode == ModeFP16 && first.fp16 != nil:
		backend = BackendFP16
	}
	subs := make([]index.Index, len(shards))
	for i, si := range shards {
		subs[i] = space(si).get(backend)
	}
	return subs, backend
}

// linkSubs selects each shard's link backend for mode.
func linkSubs(shards []*shardIdx, mode string) ([]index.Index, string) {
	return pickSubs(shards, mode, func(si *shardIdx) *tiers { return &si.links })
}

// attrSubs selects each shard's attribute backend for mode.
func attrSubs(shards []*shardIdx, mode string) ([]index.Index, string) {
	return pickSubs(shards, mode, func(si *shardIdx) *tiers { return &si.attrs })
}

// topLinks runs the link top-k against this model, fanning out over
// shards when non-nil. met may be nil (Model.Execute outside an engine);
// with one, the shard fan-out, merge, and scan-fallback stages record
// into the engine's stage histograms.
func (m *Model) topLinks(shards []*shardIdx, met *engineMetrics, u, k int, mode string, nprobe int) ([]core.Scored, string, error) {
	mode, err := validateTopK(k, mode, nprobe)
	if err != nil {
		return nil, "", err
	}
	if u < 0 || u >= m.Nodes() {
		return nil, "", fmt.Errorf("engine: src %d out of range [0,%d)", u, m.Nodes())
	}
	if shards != nil {
		q := m.Scorer.QueryInto(u, getVec(m.Emb.Xf.Cols))
		skip := func(id int) bool { return id == u }
		subs, backend := linkSubs(shards, mode)
		res, fan, merge := index.SearchShardedTimed(subs, q, k, index.Options{NProbe: nprobe, Skip: skip})
		recordStages(met, fan, merge)
		putVec(q)
		return res, backend, nil
	}
	sp := obs.StartSpan(met.scanHist())
	res := m.Scorer.TopKTargets(u, k, nil)
	sp.End()
	return res, BackendScan, nil
}

// topAttrs runs the attribute top-k against this model, fanning out over
// shards when non-nil; see topLinks for met semantics.
func (m *Model) topAttrs(shards []*shardIdx, met *engineMetrics, v, k int, mode string, nprobe int) ([]core.Scored, string, error) {
	mode, err := validateTopK(k, mode, nprobe)
	if err != nil {
		return nil, "", err
	}
	if v < 0 || v >= m.Nodes() {
		return nil, "", fmt.Errorf("engine: node %d out of range [0,%d)", v, m.Nodes())
	}
	if shards != nil {
		q := m.Emb.AttrQueryInto(v, getVec(m.Emb.Xf.Cols))
		subs, backend := attrSubs(shards, mode)
		res, fan, merge := index.SearchShardedTimed(subs, q, k, index.Options{NProbe: nprobe})
		recordStages(met, fan, merge)
		putVec(q)
		return res, backend, nil
	}
	sp := obs.StartSpan(met.scanHist())
	res := m.Emb.TopKAttrs(v, k, nil)
	sp.End()
	return res, BackendScan, nil
}

// recordStages records a fan-out/merge timing pair; nil-safe for met.
func recordStages(met *engineMetrics, fan, merge time.Duration) {
	if met == nil {
		return
	}
	met.stageFanout.Observe(fan)
	met.stageMerge.Observe(merge)
}
