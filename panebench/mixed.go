package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"pane/internal/engine"
	"pane/internal/graph"
	"pane/internal/obs"
	"pane/internal/replica"
)

const (
	// writeRate is the open-loop write rate: a 25 s phase yields 120 edge
	// updates, enough for a p90 with 10 samples beyond it.
	writeRate = 5.0
	// attrEvery makes every attrEvery-th write a 1-entry attribute update,
	// the middle one of each cycle of attrEvery writes.
	attrEvery = 25
	// edgesPerWrite is the size of one /update/edges request.
	edgesPerWrite = 4
	// mixedReadRate is the read rate beside the writes: 1,000 reads per
	// cycle of attrEvery writes, enough for a p99 per cycle.
	mixedReadRate = 200.0
	// recallSample is how many nodes the follower's top-k is compared on.
	recallSample = 100
	// convergeWait bounds the wait for the follower after the writes stop.
	convergeWait = 30 * time.Second
	// allocProbeWrites is how many sequential edge updates the traced run
	// measures allocations over, with reads and the follower idle.
	allocProbeWrites = 5
)

// writeOp is one prepared write request.
type writeOp struct {
	attr bool
	url  string
	body []byte
}

// writeOps draws count writes: 4-edge updates of edges the graph does not
// have yet, and in the middle of every attrEvery writes a 1-entry attribute
// update.
func writeOps(rng *rand.Rand, base string, g *graph.Graph, added map[[2]int]bool, count int) []writeOp {
	ops := make([]writeOp, count)
	for i := range ops {
		var payload any
		if i%attrEvery == attrEvery/2 {
			ops[i] = writeOp{attr: true, url: base + "/update/attrs"}
			payload = map[string]any{"attrs": []map[string]any{
				{"node": rng.Intn(g.N), "attr": rng.Intn(g.D), "weight": 1},
			}}
		} else {
			ops[i] = writeOp{url: base + "/update/edges"}
			edges := make([]map[string]int, 0, edgesPerWrite)
			for len(edges) < edgesPerWrite {
				u, v := rng.Intn(g.N), rng.Intn(g.N)
				if u == v || g.HasEdge(u, v) || added[[2]int{u, v}] {
					continue
				}
				added[[2]int{u, v}] = true
				edges = append(edges, map[string]int{"src": u, "dst": v})
			}
			payload = map[string]any{"edges": edges}
		}
		body, err := json.Marshal(payload)
		if err != nil {
			panic(err) // maps of ints always marshal
		}
		ops[i].body = body
	}
	return ops
}

// writer sends writes over one connection, so the server applies them in
// send order, and records the version each acknowledgement carries.
type writer struct {
	client    *http.Client
	transport *http.Transport
	acks      *stampLog
	last      uint64 // last acknowledged version; only the sending goroutine touches it
	problems  []string
}

func newWriter(acks *stampLog, last uint64) *writer {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &writer{client: &http.Client{Transport: tr, Timeout: opTimeout}, transport: tr, acks: acks, last: last}
}

func (w *writer) run(op writeOp) bool {
	resp, err := w.client.Post(op.url, "application/json", bytes.NewReader(op.body))
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var a struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		w.problems = append(w.problems, fmt.Sprintf("%s: undecodable acknowledgement: %v", op.url, err))
		return true
	}
	w.acks.stamp(a.Version)
	if a.Version <= w.last {
		w.problems = append(w.problems, fmt.Sprintf("acknowledged version %d after %d", a.Version, w.last))
	}
	w.last = a.Version
	return true
}

// round is one follower sync round that applied records.
type round struct {
	start   time.Time
	dur     time.Duration
	from    uint64 // follower version before the round
	records int
}

// tailer drives the follower: one replica.SyncOnce per poll while caught
// up, back to back while records keep coming. Driving the loop here
// instead of replica.Run lets the benchmark time each round.
type tailer struct {
	rep    *replica.Replica
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	rounds []round
}

func startTail(rep *replica.Replica) *tailer {
	ctx, cancel := context.WithCancel(context.Background())
	t := &tailer{rep: rep, cancel: cancel, done: make(chan struct{})}
	go t.loop(ctx)
	return t
}

func (t *tailer) loop(ctx context.Context) {
	defer close(t.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		from := t.rep.Engine().Version()
		start := time.Now()
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		n, err := t.rep.SyncOnce(rctx)
		cancel()
		dur := time.Since(start)
		if n > 0 {
			t.mu.Lock()
			t.rounds = append(t.rounds, round{start, dur, from, n})
			t.mu.Unlock()
		}
		if n > 0 && err == nil {
			timer.Reset(0)
		} else {
			timer.Reset(followerPoll)
		}
	}
}

// stop ends the loop and waits for it.
func (t *tailer) stop() {
	t.cancel()
	<-t.done
}

func (t *tailer) snapshot() []round {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]round(nil), t.rounds...)
}

// catchUp waits until the follower has applied the leader's version.
func catchUp(s *stack, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for s.follower.Engine().Version() != s.eng.Version() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(followerPoll)
	}
	return true
}

// mixedPhase is the outcome of one read-beside-write phase.
type mixedPhase struct {
	reads, writes []opResult
	ops           []writeOp
	firstVersion  uint64 // first version the phase's writes produced
	lastVersion   uint64
}

// runServeMixed measures open-loop reads beside open-loop writes on a
// leader with a WAL, while an in-process follower replays every record.
func runServeMixed(o opts) (r *report, err error) {
	added := map[[2]int]bool{}
	acks := &stampLog{}
	var w *writer
	// The first update builds the engine's retained affinity state on the
	// leader and the follower; set-up ends once the follower has applied it.
	prepare := func(s *stack) error {
		if w != nil {
			w.transport.CloseIdleConnections()
		}
		w = newWriter(acks, s.eng.Version())
		clear(added)
		ops := writeOps(rand.New(rand.NewSource(o.seed+2)), s.baseURL, s.g, added, 1)
		if !w.run(ops[0]) {
			return errors.New("warm-up update failed")
		}
		ctx, cancel := context.WithTimeout(context.Background(), convergeWait)
		defer cancel()
		for s.follower.Engine().Version() != s.eng.Version() {
			if _, err := s.follower.SyncOnce(ctx); err != nil {
				return fmt.Errorf("follower warm-up: %w", err)
			}
		}
		s.eng.WaitForIndex()
		s.follower.Engine().WaitForIndex()
		return nil
	}
	s, setup, st, err := setUp(o, true, prepare)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	defer w.transport.CloseIdleConnections()
	rd := newReader(s.g.N, s.g.D, max(1, o.procs-1))
	defer rd.transport.CloseIdleConnections()
	tail := startTail(s.follower)
	defer func() {
		if tail != nil {
			tail.stop()
		}
	}()

	// The phase is a whole number of write cycles, each holding one
	// attribute update, so every cycle puts the same load on the reads.
	cycle := time.Duration(attrEvery / writeRate * float64(time.Second))
	cycles := max(1, int(o.measure/cycle))
	length := time.Duration(cycles) * cycle
	writeRng := rand.New(rand.NewSource(o.seed + 3))
	phase := func(seed int64) mixedPhase {
		offs := evenSchedule(rand.New(rand.NewSource(seed)), writeRate, length)
		ph := mixedPhase{ops: writeOps(writeRng, s.baseURL, s.g, added, len(offs)), firstVersion: s.eng.Version() + 1}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.writes = openLoop(offs, 1, length+drainGrace, func(i int) bool { return w.run(ph.ops[i]) })
		}()
		_, ph.reads = readPhase(rd, s.baseURL, s.g.N, seed, mixedReadRate, length, max(1, o.procs-1))
		wg.Wait()
		ph.lastVersion = w.last
		return ph
	}

	r = newReport()
	readPhase(rd, s.baseURL, s.g.N, o.seed+1, mixedReadRate, warmUp, max(1, o.procs-1))
	var ph mixedPhase
	if !o.traced {
		cpu0 := cpuSeconds()
		t0 := time.Now()
		ph = phase(o.seed)
		fmt.Fprintf(os.Stderr, "mixed phase: process CPU %.2f of %d cores\n",
			(cpuSeconds()-cpu0)/time.Since(t0).Seconds(), o.procs)
	} else {
		untraced := phase(o.seed)
		m := markMixed(s, rd)
		ph = phase(o.seed)
		catchUp(s, convergeWait)
		m.report(r, s, tail, ph, acks)
		r.set("trace.overhead", quantile(latencies(ph.reads), 0.5)/quantile(latencies(untraced.reads), 0.5)-1)
		tail.stop()
		tail = nil
		r.set("engine.update_alloc_mb", updateAllocMB(s, w, writeRng, added))
		tail = startTail(s.follower)
		r.set("setup.train_s", st.train)
		r.set("setup.index_s", st.index)
		r.set("setup.bootstrap_s", st.bootstrap)
	}
	r.count(ph.reads)
	r.count(ph.writes)
	for _, p := range w.problems {
		r.check(false, "%s", p)
	}
	rd.verify(r, nil)

	r.check(catchUp(s, convergeWait), "follower at version %d, leader at %d after %s",
		s.follower.Engine().Version(), s.eng.Version(), convergeWait)
	s.eng.WaitForIndex()
	s.follower.Engine().WaitForIndex()
	recall := followerRecall(s, rand.New(rand.NewSource(o.seed+5)))
	r.check(recall >= 0.999, "follower top-%d recall against the leader %.4f < 0.999", topK, recall)

	var edgeLat, attrLat []opResult
	for i, x := range ph.writes {
		if ph.ops[i].attr {
			attrLat = append(attrLat, x)
		} else {
			edgeLat = append(edgeLat, x)
		}
	}
	reads, edges, attrs := latencies(ph.reads), latencies(edgeLat), latencies(attrLat)
	r.check(tailPercentile(len(reads)/cycles) >= 0.99, "%d reads cannot support a p99 per cycle", len(reads))
	r.check(tailPercentile(len(edges)) >= 0.9, "%d edge updates cannot support a p90", len(edges))
	lagsInOrder := replicationLags(r, s, acks, ph.firstVersion, ph.lastVersion)
	lags := slices.Sorted(slices.Values(lagsInOrder))
	r.check(tailPercentile(len(lags)) >= 0.9, "%d replicated versions cannot support a p90", len(lags))

	fmt.Fprintf(os.Stderr, "cycle p50s: edge updates %.2f ms, replication lag %.2f ms\n",
		windowQuantiles(inOrder(edgeLat), cycles, 0.5), windowQuantiles(lagsInOrder, cycles, 0.5))
	r.set("setup_s", setup)
	r.set("primary_p50_ms", quantile(edges, 0.5))
	r.set("second_p50_ms", quantile(lags, 0.5))
	r.set("quality", recall)
	r.set("mixed_read_p50_ms", quantile(reads, 0.5))
	r.set("mixed_read_p99_ms", windowedQuantile(inOrder(ph.reads), cycles, 0.99))
	r.set("update_p90_ms", quantile(edges, 0.9))
	r.set("attr_update_p50_ms", quantile(attrs, 0.5))
	r.set("repl_lag_p90_ms", quantile(lags, 0.9))
	return r, nil
}

// replicationLags returns, in version order, the time from the leader's
// acknowledgement of each version in [first, last] to the follower
// applying it, in milliseconds. A follower that applied a version before
// its acknowledgement reached the client counts as 0.
func replicationLags(r *report, s *stack, acks *stampLog, first, last uint64) []float64 {
	var lags []float64
	for v := first; v <= last; v++ {
		ack, ok1 := acks.get(v)
		applied, ok2 := s.applied.get(v)
		if !ok1 || !ok2 {
			r.check(false, "version %d: acknowledged %v, applied by the follower %v", v, ok1, ok2)
			continue
		}
		lags = append(lags, max(0, ms(applied.Sub(ack))))
	}
	return lags
}

// followerRecall compares exact top-k answers of the follower and the
// leader on sampled nodes and returns the share of the leader's ids the
// follower also returned.
func followerRecall(s *stack, rng *rand.Rand) float64 {
	var hit, total int
	for i := 0; i < recallSample; i++ {
		u := rng.Intn(s.g.N)
		lead, err1 := s.eng.TopLinks(u, topK, engine.ModeExact, 0)
		fol, err2 := s.follower.Engine().TopLinks(u, topK, engine.ModeExact, 0)
		if err1 != nil || err2 != nil || lead.Version != fol.Version {
			total += topK
			continue
		}
		ids := map[int]bool{}
		for _, x := range fol.Results {
			ids[x.ID] = true
		}
		for _, x := range lead.Results {
			total++
			if ids[x.ID] {
				hit++
			}
		}
	}
	return float64(hit) / float64(total)
}

// updateAllocMB measures bytes allocated per edge update: sequential
// updates with reads and the follower idle, each counted until the
// leader's index has caught up.
func updateAllocMB(s *stack, w *writer, rng *rand.Rand, added map[[2]int]bool) float64 {
	ops := writeOps(rng, s.baseURL, s.g, added, allocProbeWrites)
	s.eng.WaitForIndex()
	rt := markRuntime()
	for _, op := range ops {
		w.run(op)
		s.eng.WaitForIndex()
	}
	_, bytes, _ := rt.since()
	return bytes / allocProbeWrites / (1 << 20)
}

// mixedMarks holds the state the write-layer metrics are deltas of.
type mixedMarks struct {
	reads                 readMarks
	edgeHTTP, replicate   span
	buildIncr, buildFull  span
	cyclesIncr, cyclesFul counterMark
	walBusy               int64
	updates               int
	rd                    *reader
	topk, scans           int64
}

func markMixed(s *stack, rd *reader) mixedMarks {
	return mixedMarks{
		reads:      markReads(s.reg),
		edgeHTTP:   mark(s.reg, httpDur, obs.L("route", "/update/edges")),
		replicate:  mark(s.reg, httpDur, obs.L("route", "/replicate")),
		buildIncr:  mark(s.reg, buildDur, obs.L("kind", "incremental")),
		buildFull:  mark(s.reg, buildDur, obs.L("kind", "full")),
		cyclesIncr: markCounter(s.reg, buildsTot, obs.L("kind", "incremental")),
		cyclesFul:  markCounter(s.reg, buildsTot, obs.L("kind", "full")),
		walBusy:    s.wfs.busy.Load(),
		updates:    s.leaderUp.len(),
		rd:         rd,
		topk:       rd.topk.Load(),
		scans:      rd.scans.Load(),
	}
}

// report sets the write- and replication-layer metrics of the phase, and
// the read-layer ones of its reads.
func (m mixedMarks) report(r *report, s *stack, tail *tailer, ph mixedPhase, acks *stampLog) {
	m.reads.report(r, ph.reads, len(ph.reads)+len(ph.writes),
		m.rd.topk.Load()-m.topk, m.rd.scans.Load()-m.scans)
	ups := s.leaderUp.since(m.updates)
	if len(ups) == 0 {
		return
	}
	var affS, ccdS, edgeModelS, frontier float64
	var incr, edgeN int
	for _, u := range ups {
		affS += u.AffinitySeconds
		ccdS += u.CCDSeconds
		frontier += float64(u.AffinityFrontier)
		if u.AffinityIncremental {
			incr++
		}
		if u.DirtyAttrs == 0 {
			edgeModelS += u.AffinitySeconds + u.CCDSeconds
			edgeN++
		}
	}
	n := float64(len(ups))
	walMs := ms(time.Duration(s.wfs.busy.Load()-m.walBusy)) / n
	r.set("core.update_affinity_ms", affS*1e3/n)
	r.set("core.update_ccd_ms", ccdS*1e3/n)
	r.set("core.affinity_incremental_share", float64(incr)/n)
	r.set("core.frontier_rows", frontier/n)
	r.set("wal.append_ms", walMs)
	if edgeN > 0 {
		r.set("engine.apply_unattributed_ms", m.edgeHTTP.meanDelta()*1e3-edgeModelS*1e3/float64(edgeN)-walMs)
	}
	incrN, incrS := m.buildIncr.delta()
	fullN, fullS := m.buildFull.delta()
	if builds := incrN + fullN; builds > 0 {
		r.set("index.refresh_ms", (incrS+fullS)*1e3/builds)
		r.set("index.full_rebuild_share", m.cyclesFul.delta()/(m.cyclesIncr.delta()+m.cyclesFul.delta()))
	}
	r.set("replica.fetch_ms", m.replicate.meanDelta()*1e3)

	var writeSvc time.Duration
	for _, x := range ph.writes {
		if x.ok {
			writeSvc += x.svc
		}
	}
	if writeSvc > 0 {
		r.set("trace.coverage.write", (affS+ccdS+walMs*n/1e3)/writeSvc.Seconds())
	}

	rounds := tail.snapshot()
	var syncDur time.Duration
	var records int
	var waits []float64
	for _, rd := range rounds {
		if rd.from+1 < ph.firstVersion || rd.from >= ph.lastVersion {
			continue
		}
		syncDur += rd.dur
		records += rd.records
		for v := rd.from + 1; v <= rd.from+uint64(rd.records); v++ {
			if ack, ok := acks.get(v); ok {
				waits = append(waits, max(0, ms(rd.start.Sub(ack))))
			}
		}
	}
	if records > 0 {
		r.set("replica.sync_ms_per_record", ms(syncDur)/float64(records))
	}
	sort.Float64s(waits)
	r.set("replica.poll_wait_ms", quantile(waits, 0.5))
}

// cpuSeconds returns the CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
