package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pane/internal/core"
	"pane/internal/engine"
)

// The read mix. Only the exact and ivf layouts are requested: they are the
// ones the planned layout × codec collapse keeps, and the other modes
// degrade to exact when their tier is pruned.
const (
	readTopLinks  = iota // /top-links in the default (exact) mode, 40%
	readTopLinksI        // /top-links?mode=ivf, 30%
	readTopAttrs         // /top-attrs, 15%
	readLinkScore        // /link-score, 10%
	readBatch            // /batch of batchSize mixed queries, 5%
)

var readShares = []float64{0.40, 0.30, 0.15, 0.10, 0.05}

const (
	topK      = 10
	batchSize = 8
	opTimeout = 5 * time.Second
	// exactSampleEvery keeps every n-th exact /top-links answer for the
	// bit-for-bit check against core.LinkScorer.TopKTargets.
	exactSampleEvery = 20
	// ivfSampleEvery keeps every n-th ivf /top-links answer for its recall
	// against core.LinkScorer.TopKTargets.
	ivfSampleEvery = 5
)

// readOp is one prepared read request.
type readOp struct {
	kind int
	src  int // src, node or first query's node
	dst  int
	url  string
	body []byte // /batch only
}

// pick draws an index from shares (which sum to 1).
func pick(rng *rand.Rand, shares []float64) int {
	x := rng.Float64()
	for i, s := range shares {
		if x < s {
			return i
		}
		x -= s
	}
	return len(shares) - 1
}

// readOps draws count reads from the mix with uniform node ids.
func readOps(rng *rand.Rand, base string, nodes, count int) []readOp {
	ops := make([]readOp, count)
	for i := range ops {
		op := readOp{kind: pick(rng, readShares), src: rng.Intn(nodes), dst: rng.Intn(nodes)}
		switch op.kind {
		case readTopLinks:
			op.url = fmt.Sprintf("%s/top-links?src=%d&k=%d", base, op.src, topK)
		case readTopLinksI:
			op.url = fmt.Sprintf("%s/top-links?src=%d&k=%d&mode=ivf", base, op.src, topK)
		case readTopAttrs:
			op.url = fmt.Sprintf("%s/top-attrs?node=%d&k=%d", base, op.src, topK)
		case readLinkScore:
			op.url = fmt.Sprintf("%s/link-score?src=%d&dst=%d", base, op.src, op.dst)
		case readBatch:
			op.url = base + "/batch"
			op.body = batchBody(rng, nodes)
		}
		ops[i] = op
	}
	return ops
}

// batchBody draws batchSize queries from the single-query part of the mix.
func batchBody(rng *rand.Rand, nodes int) []byte {
	k := topK
	qs := make([]engine.Query, batchSize)
	for i := range qs {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		switch pick(rng, readShares[:readBatch]) {
		case readTopLinks:
			qs[i] = engine.Query{Op: engine.OpTopLinks, Src: u, K: &k}
		case readTopLinksI:
			qs[i] = engine.Query{Op: engine.OpTopLinks, Src: u, K: &k, Mode: engine.ModeIVF}
		case readTopAttrs:
			qs[i] = engine.Query{Op: engine.OpTopAttrs, Node: u, K: &k}
		default:
			qs[i] = engine.Query{Op: engine.OpLinkScore, Src: u, Dst: v}
		}
	}
	body, err := json.Marshal(map[string]any{"queries": qs})
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	return body
}

// topAnswer is a /top-links or /top-attrs response body.
type topAnswer struct {
	Results []core.Scored `json:"results"`
	Version uint64        `json:"version"`
	Backend string        `json:"backend"`
}

// topSample is one /top-links answer kept for verification.
type topSample struct {
	src     int
	version uint64
	got     []core.Scored
}

// scoreSample is one /link-score answer kept for verification.
type scoreSample struct {
	src, dst int
	version  uint64
	score    float64
}

// reader issues read operations and checks their answers. Answers that
// are cheap to check are checked as they arrive; exact answers are kept
// and compared against the model after the measured phase.
type reader struct {
	client       *http.Client
	transport    *http.Transport
	nodes, attrs int

	topk, scans atomic.Int64 // top-k answers, and those the scan fallback gave

	mu       sync.Mutex
	exact    []topSample
	ivf      []topSample
	scores   []scoreSample
	problems []string
}

func newReader(nodes, attrs, conns int) *reader {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &reader{
		client:    &http.Client{Transport: tr, Timeout: opTimeout},
		transport: tr,
		nodes:     nodes, attrs: attrs,
	}
}

// problem records a malformed answer (the first few are kept verbatim).
func (rd *reader) problem(format string, args ...any) {
	rd.mu.Lock()
	if len(rd.problems) < 5 {
		rd.problems = append(rd.problems, fmt.Sprintf(format, args...))
	} else if len(rd.problems) == 5 {
		rd.problems = append(rd.problems, "further malformed answers not listed")
	}
	rd.mu.Unlock()
}

// run sends ops[i] and checks its answer; it reports whether the server
// answered.
func (rd *reader) run(ops []readOp, i int) bool {
	op := ops[i]
	var (
		resp *http.Response
		err  error
	)
	if op.body != nil {
		resp, err = rd.client.Post(op.url, "application/json", bytes.NewReader(op.body))
	} else {
		resp, err = rd.client.Get(op.url)
	}
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	switch op.kind {
	case readTopLinks, readTopLinksI, readTopAttrs:
		var a topAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			rd.problem("%s: undecodable answer: %v", op.url, err)
			return true
		}
		limit, self := rd.nodes, op.src
		if op.kind == readTopAttrs {
			limit, self = rd.attrs, -1
		}
		rd.checkTop(op.url, a.Results, a.Backend, limit, self)
		switch {
		case op.kind == readTopLinks && i%exactSampleEvery == 0:
			rd.mu.Lock()
			rd.exact = append(rd.exact, topSample{op.src, a.Version, a.Results})
			rd.mu.Unlock()
		case op.kind == readTopLinksI && i%ivfSampleEvery == 0:
			rd.mu.Lock()
			rd.ivf = append(rd.ivf, topSample{op.src, a.Version, a.Results})
			rd.mu.Unlock()
		}
	case readLinkScore:
		var a struct {
			Score   float64 `json:"score"`
			Version uint64  `json:"version"`
		}
		if err := json.Unmarshal(body, &a); err != nil {
			rd.problem("%s: undecodable answer: %v", op.url, err)
			return true
		}
		rd.mu.Lock()
		rd.scores = append(rd.scores, scoreSample{op.src, op.dst, a.Version, a.Score})
		rd.mu.Unlock()
	case readBatch:
		var a struct {
			Results []engine.Result `json:"results"`
		}
		if err := json.Unmarshal(body, &a); err != nil || len(a.Results) != batchSize {
			rd.problem("/batch: %d results, err %v", len(a.Results), err)
			return true
		}
		for _, res := range a.Results {
			switch {
			case res.Err != "":
				rd.problem("/batch: query failed: %s", res.Err)
			case res.Op == engine.OpLinkScore:
				if res.Score == nil || math.IsNaN(*res.Score) {
					rd.problem("/batch: link-score without a score")
				}
			default:
				// A batch answer does not carry the query's node or op
				// kind: check its shape against the larger id range.
				rd.checkTop(op.url, res.Top, res.Backend, rd.nodes, -1)
			}
		}
	}
	return true
}

// checkTop checks a top-k answer is well formed: k results, ids in
// [0, limit) and other than self, ranked by core.Better.
func (rd *reader) checkTop(what string, res []core.Scored, backend string, limit, self int) {
	rd.topk.Add(1)
	if backend == engine.BackendScan {
		rd.scans.Add(1)
	}
	if len(res) != topK {
		rd.problem("%s: %d results, want %d", what, len(res), topK)
		return
	}
	for j, s := range res {
		if s.ID < 0 || s.ID >= limit || s.ID == self ||
			math.IsNaN(s.Score) || (j > 0 && !core.Better(res[j-1], s)) {
			rd.problem("%s: malformed result %d: %+v", what, j, res)
			return
		}
	}
}

// verdict counts what verify compared: exact answers checked and those
// bit-identical to the scan, and the ivf answers' ids that the scan's
// top-k also holds, out of all their ids.
type verdict struct {
	bitwise, checked  int
	ivfHits, ivfTotal int
}

// verify compares the kept answers with the model they were computed
// from: link scores with Scorer.Directed, exact top-k with
// Scorer.TopKTargets, and the ivf top-k's ids with Scorer.TopKTargets's.
// With a nil model only the malformed answers are reported.
func (rd *reader) verify(r *report, m *engine.Model) (v verdict) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	for _, p := range rd.problems {
		r.check(false, "%s", p)
	}
	if m == nil {
		return v
	}
	for _, s := range rd.scores {
		if s.version != m.Version {
			continue
		}
		want := m.Scorer.Directed(s.src, s.dst)
		r.check(math.Float64bits(want) == math.Float64bits(s.score),
			"/link-score src=%d dst=%d: %v, Scorer.Directed says %v", s.src, s.dst, s.score, want)
	}
	for _, s := range rd.exact {
		if s.version != m.Version {
			continue
		}
		want := m.Scorer.TopKTargets(s.src, topK, nil)
		v.checked++
		same, close := compareTop(m.Scorer, s.src, s.got, want)
		if same {
			v.bitwise++
		}
		r.check(close, "exact /top-links src=%d: %v, Scorer.TopKTargets says %v", s.src, s.got, want)
	}
	for _, s := range rd.ivf {
		if s.version != m.Version {
			continue
		}
		ids := map[int]bool{}
		for _, x := range m.Scorer.TopKTargets(s.src, topK, nil) {
			ids[x.ID] = true
		}
		v.ivfTotal += len(ids)
		for _, x := range s.got {
			if ids[x.ID] {
				v.ivfHits++
			}
		}
	}
	return v
}

// scoreTol is the relative score tolerance between the exact index and
// the scan. The exact tier scores Xf[u]·(Xb·G)[v]; TopKTargets scores
// (Xf[u]·G)·Xb[v]: the same sum in a different association order.
const scoreTol = 1e-9

// compareTop reports whether got, the exact top-k of src, equals want, the
// scan's, bit for bit, and whether it is a correct top-k within scoreTol:
// rank by rank its scores agree with the scan's, and each returned id's
// score agrees with Scorer.Directed. Ids may then differ only where
// candidates tie within the tolerance.
func compareTop(sc *core.LinkScorer, src int, got, want []core.Scored) (same, close bool) {
	if len(got) != len(want) {
		return false, false
	}
	same = true
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			same = false
		}
		tol := scoreTol * math.Max(1, math.Abs(want[i].Score))
		if math.Abs(got[i].Score-want[i].Score) > tol ||
			math.Abs(sc.Directed(src, got[i].ID)-got[i].Score) > tol {
			return same, false
		}
	}
	return same, true
}
