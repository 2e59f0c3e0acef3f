package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"
)

// opResult is one operation's outcome as the open-loop generator saw it.
type opResult struct {
	lat  time.Duration // completion minus the intended send time
	svc  time.Duration // completion minus the actual send time
	late time.Duration // how late the generator dispatched the operation
	ok   bool
}

// failPenalty is the latency a failed operation is counted with: far past
// every latency limit the benchmark applies.
const failPenalty = 10 * time.Second

// schedule returns round(rate·d) intended send offsets in [0, d): a Poisson
// process conditioned on its count. A seed fixes both the count and the
// burst pattern, so two programs measured with one seed see the same load.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	n := int(math.Round(rate * d.Seconds()))
	if n < 1 {
		n = 1
	}
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	offs := make([]time.Duration, n)
	var acc float64
	for i := range offs {
		acc += gaps[i]
		offs[i] = time.Duration(acc / total * float64(d))
	}
	return offs
}

// evenSchedule returns round(rate·d) intended send offsets spaced exactly
// 1/rate apart, the first at a seeded offset within the first interval.
// Rare expensive operations interleaved at a fixed stride (attribute
// updates among edge updates) then delay the same number of followers in
// every run, instead of however many a Poisson burst happened to queue.
func evenSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	n := max(1, int(math.Round(rate*d.Seconds())))
	gap := float64(d) / float64(n)
	first := rng.Float64() * gap
	offs := make([]time.Duration, n)
	for i := range offs {
		offs[i] = time.Duration(first + float64(i)*gap)
	}
	return offs
}

// openLoop sends operation i at start+offs[i] over conns workers whatever
// the state of earlier operations, and times each from its intended send
// time, so a stall is charged to every operation queued behind it. An
// operation still queued when drain has passed since start is not sent and
// counts as failed. do performs operation i and reports success.
func openLoop(offs []time.Duration, conns int, drain time.Duration, do func(i int) bool) []opResult {
	res := make([]opResult, len(offs))
	queue := make(chan int, len(offs)) // sized to the number of sends: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(offs[i])
				sent := time.Now()
				if sent.Sub(start) > drain {
					res[i].lat, res[i].svc = failPenalty, failPenalty
					continue
				}
				ok := do(i)
				done := time.Now()
				res[i].lat, res[i].svc, res[i].ok = done.Sub(due), done.Sub(sent), ok
			}
		}()
	}
	for i, off := range offs {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// inOrder returns the intended-send latencies of res in milliseconds, in
// send order, with every failed operation counted at failPenalty.
func inOrder(res []opResult) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		d := r.lat
		if !r.ok && d < failPenalty {
			d = failPenalty
		}
		out[i] = ms(d)
	}
	return out
}

// latencies returns the latencies of inOrder, sorted.
func latencies(res []opResult) []float64 {
	out := inOrder(res)
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentiles are the percentiles a tail latency may be reported at,
// highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// minBeyond is how many samples must lie past a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest of tailPercentiles that leaves at
// least minBeyond of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, q := range tailPercentiles {
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= minBeyond {
			return q
		}
	}
	return 0
}

// backlogGrows reports whether the latency of a run kept rising: the
// median of its last quarter (in send order) exceeds twice the median of
// its first quarter plus a millisecond. A system that keeps up holds a
// steady latency at any rate; one that falls behind queues more work the
// longer the rate lasts.
func backlogGrows(res []opResult) bool {
	q := len(res) / 4
	if q == 0 {
		return false
	}
	first := latencies(res[:q])
	last := latencies(res[len(res)-q:])
	return quantile(last, 0.5) > 2*quantile(first, 0.5)+1
}

// windowedQuantile splits vals (in send order) into n windows and returns
// the median of their q-quantiles: a burst of host noise, or a slow stretch
// of the host covering fewer than half the windows, moves some windows, not
// the reported value. Each window must hold enough samples for q.
func windowedQuantile(vals []float64, n int, q float64) float64 {
	qs := windowQuantiles(vals, n, q)
	sort.Float64s(qs)
	return quantile(qs, 0.5)
}

// windowQuantiles returns the q-quantile of each of n consecutive windows
// of vals, in order.
func windowQuantiles(vals []float64, n int, q float64) []float64 {
	qs := make([]float64, n)
	for w := range qs {
		win := slices.Clone(vals[w*len(vals)/n : (w+1)*len(vals)/n])
		sort.Float64s(win)
		qs[w] = quantile(win, q)
	}
	return qs
}

// rungPasses reports whether one ladder rate met the service objective:
// enough samples to read p99, p99 within limitMs, no failed operation, and
// no growing backlog.
func rungPasses(res []opResult, limitMs float64) bool {
	if tailPercentile(len(res)) < 0.99 {
		return false
	}
	for _, r := range res {
		if !r.ok {
			return false
		}
	}
	return quantile(latencies(res), 0.99) <= limitMs && !backlogGrows(res)
}

// ladder returns the fixed rates from lo up to at most hi, each step times
// the one before: the only rates read_max_qps can take.
func ladder(lo, hi, step float64) []float64 {
	var rungs []float64
	for r := lo; r <= hi*(1+1e-9); r *= step {
		rungs = append(rungs, math.Round(r))
	}
	return rungs
}

// maxPassingRate binary-searches the ascending rungs for the highest rate
// pass accepts, assuming a system that passes at one rate passes at every
// lower one. It returns 0 when even the lowest rung fails.
func maxPassingRate(rungs []float64, pass func(rate float64) bool) float64 {
	lo, hi := -1, len(rungs) // rungs[lo] passed, rungs[hi] failed
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(rungs[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0
	}
	return rungs[lo]
}
