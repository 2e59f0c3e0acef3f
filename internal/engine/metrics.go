package engine

import (
	"pane/internal/obs"
)

// engineMetrics is the engine's full metric surface, resolved against one
// obs.Registry at construction so the hot paths record through pre-looked-
// up handles (an atomic add, never a map lookup). IndexStatus and
// AffinityStatus read the same handles — /healthz and /metrics report from
// the same cells and cannot disagree.
type engineMetrics struct {
	reg *obs.Registry

	// Update pipeline (apply).
	updIncr      *obs.Counter // updates taking the delta path
	updFull      *obs.Counter
	lastDelta    *obs.Gauge // dirty rows of the most recent update
	affPassIncr  *obs.Counter
	affPassFull  *obs.Counter
	affDurIncr   *obs.Histogram
	affDurFull   *obs.Histogram
	ccdDur       *obs.Histogram
	affFrontier  *obs.Gauge
	affDrift     *obs.Gauge
	modelVersion *obs.Gauge

	// Failover / fencing.
	epoch   *obs.Gauge   // fencing epoch the engine writes at
	deposed *obs.Gauge   // 1 while a newer epoch has been observed
	fenced  *obs.Counter // writes refused with ErrFenced

	// Index build cycles (per-shard workers + manual rebuilds).
	buildIncr    *obs.Counter
	buildFull    *obs.Counter
	buildDurIncr *obs.Histogram
	buildDurFull *obs.Histogram

	// Query stages. Fan-out covers the parallel per-shard searches, merge
	// the partial combination, scan the brute-force fallback when no fresh
	// consistent shard cut exists.
	stageFanout *obs.Histogram
	stageMerge  *obs.Histogram
	stageScan   *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	const (
		updHelp   = "Applied model updates by pipeline path."
		affHelp   = "Affinity recurrence passes by kind (patched over the delta frontier vs full recompute)."
		affDur    = "Affinity phase wall time per update, by kind."
		buildHelp = "Per-shard index build cycles by kind (incremental refresh vs full rebuild)."
		buildDur  = "Per-shard index build wall time, by kind."
		stageHelp = "Top-k query stage wall time (shard fan-out, partial merge, brute-force scan fallback)."
	)
	// Info gauge: one always-1 series per kernel, labeled with the
	// instruction set it dispatches to, so dashboards can tell at a
	// glance whether a host is serving from its SIMD or generic paths.
	for op, isa := range KernelDispatch() {
		reg.Gauge("pane_kernel_dispatch",
			"Active instruction set per compute kernel (1 = this op dispatches to this ISA).",
			obs.L("op", op), obs.L("isa", isa)).Set(1)
	}
	return &engineMetrics{
		reg:     reg,
		updIncr: reg.Counter("pane_updates_total", updHelp, obs.L("path", "incremental")),
		updFull: reg.Counter("pane_updates_total", updHelp, obs.L("path", "full")),
		lastDelta: reg.Gauge("pane_update_last_delta_rows",
			"Dirty rows (nodes + attributes) of the most recent update's delta."),
		affPassIncr: reg.Counter("pane_update_affinity_passes_total", affHelp, obs.L("kind", "incremental")),
		affPassFull: reg.Counter("pane_update_affinity_passes_total", affHelp, obs.L("kind", "full")),
		affDurIncr:  reg.Histogram("pane_update_affinity_duration_seconds", affDur, obs.L("kind", "incremental")),
		affDurFull:  reg.Histogram("pane_update_affinity_duration_seconds", affDur, obs.L("kind", "full")),
		ccdDur: reg.Histogram("pane_update_ccd_duration_seconds",
			"CCD refinement wall time per update."),
		affFrontier: reg.Gauge("pane_update_affinity_frontier_rows",
			"Total frontier rows (forward + backward) of the most recent affinity patch."),
		affDrift: reg.Gauge("pane_update_affinity_drift",
			"Advisory drift estimate of the retained affinity state."),
		modelVersion: reg.Gauge("pane_model_version",
			"Version of the currently served model."),
		epoch: reg.Gauge("pane_model_epoch",
			"Fencing epoch the engine writes (or accepts records) at; failover promotions bump it."),
		deposed: reg.Gauge("pane_model_deposed",
			"1 while a newer fencing epoch has been observed: writes are refused, reads keep serving."),
		fenced: reg.Counter("pane_fencing_rejections_total",
			"Writes and replicated records refused because their fencing epoch was superseded."),
		buildIncr:    reg.Counter("pane_index_build_cycles_total", buildHelp, obs.L("kind", "incremental")),
		buildFull:    reg.Counter("pane_index_build_cycles_total", buildHelp, obs.L("kind", "full")),
		buildDurIncr: reg.Histogram("pane_index_build_duration_seconds", buildDur, obs.L("kind", "incremental")),
		buildDurFull: reg.Histogram("pane_index_build_duration_seconds", buildDur, obs.L("kind", "full")),
		stageFanout:  reg.Histogram("pane_query_stage_duration_seconds", stageHelp, obs.L("stage", "fanout")),
		stageMerge:   reg.Histogram("pane_query_stage_duration_seconds", stageHelp, obs.L("stage", "merge")),
		stageScan:    reg.Histogram("pane_query_stage_duration_seconds", stageHelp, obs.L("stage", "scan")),
	}
}

// The stage accessors are nil-safe because Model methods run with a nil
// *engineMetrics when invoked outside an engine (Model.Execute), and
// obs.StartSpan over a nil histogram is a no-op.

func (m *engineMetrics) fanoutHist() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.stageFanout
}

func (m *engineMetrics) mergeHist() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.stageMerge
}

func (m *engineMetrics) scanHist() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.stageScan
}

// WithMetricsRegistry records the engine's metrics into reg instead of a
// fresh per-engine registry — the way a server shares one registry between
// the engine and its HTTP middleware so GET /metrics exposes both.
func WithMetricsRegistry(reg *obs.Registry) Option {
	return func(e *Engine) {
		if reg != nil {
			e.reg = reg
		}
	}
}

// Metrics returns the registry this engine records into (never nil).
// Serving layers expose it (obs.Registry.Handler) and read snapshots from
// it; its counters are the same cells IndexStatus and AffinityStatus
// report.
func (e *Engine) Metrics() *obs.Registry { return e.reg }
