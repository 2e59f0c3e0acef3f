package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"pane/internal/obs"
	"pane/internal/wal"
)

// layerMetrics lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload leaves idle reads 0. The last
// eight are end-to-end figures of one workload each: the tails vary too
// much between runs on a 2-vCPU host to carry a bound, and the others have
// no counterpart on the other workloads, which every end-to-end metric
// needs. They are reported, not gated.
var layerMetrics = []struct{ name, unit string }{
	{"core.affinity_s", "s"},
	{"core.init_s", "s"},
	{"core.ccd_s", "s"},
	{"core.train_alloc_mb", "MB"},
	{"setup.train_s", "s"},
	{"setup.index_s", "s"},
	{"setup.bootstrap_s", "s"},
	{"transport.self_us", "us"},
	{"server.self_us", "us"},
	{"engine.topk_us.exact", "us"},
	{"engine.topk_us.ivf", "us"},
	{"index.search_us", "us"},
	{"engine.merge_us", "us"},
	{"engine.batch_us_per_query", "us"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"core.update_affinity_ms", "ms"},
	{"core.update_ccd_ms", "ms"},
	{"core.affinity_incremental_share", "ratio"},
	{"core.frontier_rows", "count"},
	{"wal.append_ms", "ms"},
	{"engine.apply_unattributed_ms", "ms"},
	{"engine.update_alloc_mb", "MB"},
	{"index.refresh_ms", "ms"},
	{"index.full_rebuild_share", "ratio"},
	{"engine.scan_fallback_share", "ratio"},
	{"index.exact_bitwise_share", "ratio"},
	{"replica.fetch_ms", "ms"},
	{"replica.sync_ms_per_record", "ms"},
	{"replica.poll_wait_ms", "ms"},
	{"trace.coverage.read", "ratio"},
	{"trace.coverage.write", "ratio"},
	{"trace.overhead", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"mixed_read_p50_ms", "ms"},
	{"mixed_read_p99_ms", "ms"},
	{"update_p90_ms", "ms"},
	{"repl_lag_p90_ms", "ms"},
	{"train_objective", "sq_error"},
	{"read_max_qps", "req/s"},
	{"attr_update_p50_ms", "ms"},
}

// zeroLayers sets every per-layer metric the run did not measure to 0:
// the layer did no work in this workload.
func zeroLayers(r *report) {
	for _, m := range layerMetrics {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0)
		}
	}
}

// Names of the program's own metrics the traced runs read (internal/obs
// families registered by the engine and the HTTP middleware).
const (
	httpDur   = "pane_http_request_duration_seconds"
	topkDur   = "pane_topk_duration_seconds"
	stageDur  = "pane_query_stage_duration_seconds"
	buildDur  = "pane_index_build_duration_seconds"
	buildsTot = "pane_index_build_cycles_total"
)

// span is a histogram's count and sum at one instant.
type span struct {
	h     *obs.Histogram
	count uint64
	sum   float64
}

// mark records a histogram's state so a later delta covers one phase.
func mark(reg *obs.Registry, name string, labels ...obs.Label) span {
	h := reg.Histogram(name, "", labels...)
	return span{h: h, count: h.Count(), sum: h.Sum()}
}

// delta returns the observations and their total seconds since the mark.
func (s span) delta() (n float64, seconds float64) {
	return float64(s.h.Count() - s.count), s.h.Sum() - s.sum
}

// meanDelta returns the mean seconds per observation since the mark.
func (s span) meanDelta() float64 {
	n, sec := s.delta()
	if n == 0 {
		return 0
	}
	return sec / n
}

// counterMark is a counter's value at one instant.
type counterMark struct {
	c *obs.Counter
	v uint64
}

func markCounter(reg *obs.Registry, name string, labels ...obs.Label) counterMark {
	c := reg.Counter(name, "", labels...)
	return counterMark{c: c, v: c.Value()}
}

func (m counterMark) delta() float64 { return float64(m.c.Value() - m.v) }

// runtimeMark holds the process-wide allocation and CPU counters.
type runtimeMark struct {
	mallocs, totalAlloc uint64
	gcCPU, allCPU       float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return runtimeMark{
		mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc,
		gcCPU: float64Value(s[0]), allCPU: float64Value(s[1]),
	}
}

func float64Value(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// since returns allocations and the GC share of CPU time since the mark.
func (m runtimeMark) since() (mallocs, allocBytes, gcShare float64) {
	now := markRuntime()
	if cpu := now.allCPU - m.allCPU; cpu > 0 {
		gcShare = (now.gcCPU - m.gcCPU) / cpu
	}
	return float64(now.mallocs - m.mallocs), float64(now.totalAlloc - m.totalAlloc), gcShare
}

// timedFS wraps a wal.FS and accumulates the time the log spends writing
// and fsyncing segment files.
type timedFS struct {
	wal.FS
	busy atomic.Int64 // nanoseconds in Write and Sync of segment files
}

func (fs *timedFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, busy: &fs.busy}, nil
}

func (fs *timedFS) OpenAppend(name string) (wal.File, error) {
	f, err := fs.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, busy: &fs.busy}, nil
}

type timedFile struct {
	wal.File
	busy *atomic.Int64
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.busy.Add(int64(time.Since(t0)))
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.busy.Add(int64(time.Since(t0)))
	return err
}
