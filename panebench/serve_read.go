package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"pane/internal/engine"
	"pane/internal/obs"
)

const (
	// nominalRate is the fixed read rate the serve_read latencies are
	// measured at: about a third of the mix's saturation rate on a 2-core
	// host (see README.md).
	nominalRate = 800.0
	// readLimitMs is the p99 latency objective of the read_max_qps ladder.
	// It sits well above the p99 a 2-vCPU cloud host shows at low load
	// (6–18 ms at 300–1200 req/s, from CPU steal), so that the ladder finds
	// where the server stops keeping up rather than where the host hiccups.
	readLimitMs = 50.0
	warmUp      = 500 * time.Millisecond
	// drainGrace is how long past the end of its schedule an operation
	// may still be sent before it counts as failed.
	drainGrace = 2 * time.Second
	// p99Windows is how many windows read_p99_ms is the median of.
	p99Windows = 5
	// p50Windows is how many windows the serve_read medians are the
	// median of: 2.5 s each in a 25 s phase.
	p50Windows = 10
)

// readLadder is the fixed set of rates read_max_qps can take: 5% apart,
// up to about twice the rate a 2-core host sustains.
var readLadder = ladder(300, 5000, 1.05)

// probeLength is how long one ladder rate runs: a tenth of the measured
// time, so that a momentary stall of the host cannot push a rate's p99 past
// the limit, and long enough for the p99 to have 10 samples beyond it.
func probeLength(rate float64, measure time.Duration) time.Duration {
	d := time.Duration(1200 / rate * float64(time.Second))
	return max(d, measure/10)
}

// readPhase runs an open-loop read phase at rate for d over conns
// connections and returns the reads it sent with their outcomes. Its
// schedule and requests depend only on seed.
func readPhase(rd *reader, base string, nodes int, seed int64, rate float64, d time.Duration, conns int) ([]readOp, []opResult) {
	rng := rand.New(rand.NewSource(seed))
	offs := schedule(rng, rate, d)
	ops := readOps(rng, base, nodes, len(offs))
	return ops, openLoop(offs, conns, d+drainGrace, func(i int) bool { return rd.run(ops, i) })
}

// ofKind returns the reads of one kind among res, in send order.
func ofKind(ops []readOp, res []opResult, kind int) []opResult {
	var of []opResult
	for i, x := range res {
		if ops[i].kind == kind {
			of = append(of, x)
		}
	}
	return of
}

// runServeRead measures open-loop reads at the nominal rate for the whole
// measured time; the write path stays idle. The traced run measures two
// phases of half that length, plain and with the layer readings around
// it, then climbs the rate ladder for read_max_qps.
func runServeRead(o opts) (r *report, err error) {
	s, setup, st, err := setUp(o, false, nil)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	rd := newReader(s.g.N, s.g.D, o.procs)
	defer rd.transport.CloseIdleConnections()
	phase := func(seed int64, rate float64, d time.Duration) ([]readOp, []opResult) {
		return readPhase(rd, s.baseURL, s.g.N, seed, rate, d, o.procs)
	}

	r = newReport()
	phase(o.seed+1, nominalRate, warmUp)
	var (
		ops     []readOp
		nominal []opResult
	)
	if o.traced {
		// The plain and the read phase share the measured time, and
		// the ladder comes after them.
		_, untraced := phase(o.seed, nominalRate, o.measure/2)
		marks := markReads(s.reg)
		top0, scan0 := rd.topk.Load(), rd.scans.Load()
		ops, nominal = phase(o.seed, nominalRate, o.measure/2)
		marks.report(r, nominal, len(nominal), rd.topk.Load()-top0, rd.scans.Load()-scan0)
		r.set("setup.train_s", st.train)
		r.set("setup.index_s", st.index)
		r.set("trace.overhead", quantile(latencies(nominal), 0.5)/quantile(latencies(untraced), 0.5)-1)
		r.set("read_max_qps", maxPassingRate(readLadder, func(rate float64) bool {
			_, res := phase(o.seed+int64(rate)*7919, rate, probeLength(rate, o.measure))
			ok := rungPasses(res, readLimitMs)
			fmt.Fprintf(os.Stderr, "ladder %6.0f/s: p99 %7.2f ms, pass %v\n", rate, quantile(latencies(res), 0.99), ok)
			return ok
		}))
	} else {
		cpu0, t0 := cpuSeconds(), time.Now()
		ops, nominal = phase(o.seed, nominalRate, o.measure)
		fmt.Fprintf(os.Stderr, "read phase: process CPU %.2f of %d cores, window p50s %.3f ms\n",
			(cpuSeconds()-cpu0)/time.Since(t0).Seconds(), o.procs, windowQuantiles(inOrder(nominal), p50Windows, 0.5))
	}
	r.count(nominal)
	exact := ofKind(ops, nominal, readTopLinks)
	r.check(tailPercentile(len(nominal)/p99Windows) >= 0.99, "%d reads cannot support a p99 per window", len(nominal))
	r.check(tailPercentile(len(exact)/p50Windows) >= 0.5, "%d exact /top-links reads cannot support a median per window", len(exact))
	r.set("setup_s", setup)
	r.set("primary_p50_ms", windowedQuantile(inOrder(nominal), p50Windows, 0.5))
	r.set("second_p50_ms", windowedQuantile(inOrder(exact), p50Windows, 0.5))
	r.set("read_p99_ms", windowedQuantile(inOrder(nominal), p99Windows, 0.99))
	v := rd.verify(r, s.model)
	r.check(v.checked > 0, "no exact /top-links answer was verified")
	r.check(v.ivfTotal > 0, "no ivf /top-links answer was sampled")
	if v.checked > 0 {
		r.set("index.exact_bitwise_share", float64(v.bitwise)/float64(v.checked))
	}
	if v.ivfTotal > 0 {
		r.set("quality", float64(v.ivfHits)/float64(v.ivfTotal))
	}
	return r, nil
}

// readRoutes are the routes the read mix requests.
var readRoutes = []string{"/top-links", "/top-attrs", "/link-score", "/batch"}

// readMarks holds the registry state the read-layer metrics are deltas of.
type readMarks struct {
	http                map[string]span
	topk                map[[2]string]span // route, backend
	fanout, merge, scan span
	rt                  runtimeMark
}

func markReads(reg *obs.Registry) readMarks {
	m := readMarks{http: map[string]span{}, topk: map[[2]string]span{}}
	for _, route := range readRoutes {
		m.http[route] = mark(reg, httpDur, obs.L("route", route))
	}
	for _, route := range []string{"/top-links", "/top-attrs"} {
		for _, b := range []string{engine.BackendExact, engine.BackendIVF, engine.BackendScan} {
			m.topk[[2]string{route, b}] = mark(reg, topkDur, obs.L("route", route), obs.L("backend", b))
		}
	}
	m.fanout = mark(reg, stageDur, obs.L("stage", "fanout"))
	m.merge = mark(reg, stageDur, obs.L("stage", "merge"))
	m.scan = mark(reg, stageDur, obs.L("stage", "scan"))
	m.rt = markRuntime()
	return m
}

// report sets the read-layer metrics of the phase that produced reads.
// requests counts every request of the phase (reads and writes) for the
// allocation rate; topk and scans are the phase's top-k answers and those
// the scan fallback gave.
func (m readMarks) report(r *report, reads []opResult, requests int, topk, scans int64) {
	mallocs, _, gcShare := m.rt.since()
	var svc time.Duration
	var served int
	lates := make([]float64, len(reads))
	for i, x := range reads {
		lates[i] = ms(x.late)
		if x.ok {
			svc += x.svc
			served++
		}
	}
	var httpN, httpS float64
	for _, sp := range m.http {
		n, sec := sp.delta()
		httpN, httpS = httpN+n, httpS+sec
	}
	var topN, topS, routeS float64
	for _, sp := range m.topk {
		n, sec := sp.delta()
		topN, topS = topN+n, topS+sec
	}
	for _, route := range []string{"/top-links", "/top-attrs"} {
		_, sec := m.http[route].delta()
		routeS += sec
	}
	exactN, exactS := 0.0, 0.0
	for _, route := range []string{"/top-links", "/top-attrs"} {
		n, sec := m.topk[[2]string{route, engine.BackendExact}].delta()
		exactN, exactS = exactN+n, exactS+sec
	}
	_, fanS := m.fanout.delta()
	_, mergeS := m.merge.delta()
	_, scanS := m.scan.delta()

	us := func(sec float64) float64 { return sec * 1e6 }
	if served > 0 && httpN > 0 {
		r.set("transport.self_us", us(svc.Seconds()/float64(served)-httpS/httpN))
		r.set("trace.coverage.read", (fanS+mergeS+scanS)/svc.Seconds())
	}
	if topN > 0 {
		r.set("server.self_us", us((routeS-topS)/topN))
	}
	if exactN > 0 {
		r.set("engine.topk_us.exact", us(exactS/exactN))
	}
	r.set("engine.topk_us.ivf", us(m.topk[[2]string{"/top-links", engine.BackendIVF}].meanDelta()))
	r.set("index.search_us", us(m.fanout.meanDelta()))
	r.set("engine.merge_us", us(m.merge.meanDelta()))
	r.set("engine.batch_us_per_query", us(m.http["/batch"].meanDelta()/batchSize))
	r.set("runtime.allocs_per_req", mallocs/float64(requests))
	r.set("runtime.gc_cpu_share", gcShare)
	if topk > 0 {
		r.set("engine.scan_fallback_share", float64(scans)/float64(topk))
	}
	sort.Float64s(lates)
	r.set("gen.late_p99_ms", quantile(lates, 0.99))
}
