package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsSeededSortedAndInRange(t *testing.T) {
	const rate, d = 400.0, 5 * time.Second
	a := schedule(rand.New(rand.NewSource(7)), rate, d)
	b := schedule(rand.New(rand.NewSource(7)), rate, d)
	c := schedule(rand.New(rand.NewSource(8)), rate, d)
	if len(a) != int(rate*d.Seconds()) {
		t.Fatalf("%d sends, want %d", len(a), int(rate*d.Seconds()))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, send %d at %v and %v", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
		if a[i] < 0 || a[i] >= d || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("send %d at %v: out of order or outside [0, %v)", i, a[i], d)
		}
	}
	if same {
		t.Fatal("different seeds gave the same schedule")
	}
	// A Poisson process has exponential gaps: their coefficient of
	// variation is about 1, where an even spacing has 0.
	var sum, sq float64
	for i := 1; i < len(a); i++ {
		g := float64(a[i] - a[i-1])
		sum += g
		sq += g * g
	}
	n := float64(len(a) - 1)
	mean := sum / n
	if cv := (sq/n - mean*mean) / (mean * mean); cv < 0.8 || cv > 1.2 {
		t.Fatalf("squared coefficient of variation of the gaps %.2f, want about 1", cv)
	}
}

func TestEvenScheduleSpacing(t *testing.T) {
	offs := evenSchedule(rand.New(rand.NewSource(3)), 5, 10*time.Second)
	if len(offs) != 50 {
		t.Fatalf("%d sends, want 50", len(offs))
	}
	if offs[0] < 0 || offs[0] >= 200*time.Millisecond {
		t.Fatalf("first send at %v, want within the first 200ms", offs[0])
	}
	for i := 1; i < len(offs); i++ {
		if gap := offs[i] - offs[i-1]; gap < 199*time.Millisecond || gap > 201*time.Millisecond {
			t.Fatalf("gap %d is %v, want 200ms", i, gap)
		}
	}
}

func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	// One connection and a 20ms operation: ops due every 5ms queue, and
	// each is charged the wait behind the ones before it.
	offs := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	var calls atomic.Int32
	res := openLoop(offs, 1, time.Second, func(int) bool {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		return true
	})
	if calls.Load() != 4 {
		t.Fatalf("%d calls, want 4", calls.Load())
	}
	for i, r := range res {
		if !r.ok {
			t.Fatalf("op %d failed", i)
		}
		// Op i starts after i earlier 20ms ops and was due at 5i ms.
		if want := time.Duration(i)*15*time.Millisecond + 20*time.Millisecond; r.lat < want {
			t.Fatalf("op %d latency %v, want at least %v", i, r.lat, want)
		}
		if r.svc < 20*time.Millisecond || r.svc > r.lat {
			t.Fatalf("op %d service time %v outside [20ms, %v]", i, r.svc, r.lat)
		}
	}
}

func TestOpenLoopFailsOpsQueuedPastDrain(t *testing.T) {
	offs := []time.Duration{0, 0, 0}
	res := openLoop(offs, 1, 10*time.Millisecond, func(int) bool {
		time.Sleep(30 * time.Millisecond)
		return true
	})
	if !res[0].ok || res[1].ok || res[2].ok {
		t.Fatalf("ok flags %v %v %v, want only the first op sent", res[0].ok, res[1].ok, res[2].ok)
	}
	if l := latencies(res); l[2] != ms(failPenalty) {
		t.Fatalf("failed op counted at %v ms, want %v", l[2], ms(failPenalty))
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// steady returns n results with latencies from lat(i) milliseconds.
func steady(n int, lat func(i int) float64) []opResult {
	res := make([]opResult, n)
	for i := range res {
		d := time.Duration(lat(i) * float64(time.Millisecond))
		res[i] = opResult{lat: d, svc: d, ok: true}
	}
	return res
}

func TestBacklogRule(t *testing.T) {
	flat := steady(400, func(i int) float64 { return 2 + float64(i%7)/10 })
	if backlogGrows(flat) {
		t.Fatal("a steady latency was read as a growing backlog")
	}
	growing := steady(400, func(i int) float64 { return 1 + float64(i)/20 })
	if !backlogGrows(growing) {
		t.Fatal("a latency rising with every send was not read as a growing backlog")
	}
}

func TestRungPasses(t *testing.T) {
	ok := steady(1000, func(i int) float64 { return 1 + float64(i%10) })
	if !rungPasses(ok, 50) {
		t.Fatal("a rate with p99 10ms failed a 50ms limit")
	}
	if rungPasses(ok, 5) {
		t.Fatal("a rate with p99 10ms passed a 5ms limit")
	}
	if rungPasses(ok[:500], 50) {
		t.Fatal("500 samples passed, but they cannot support a p99")
	}
	failed := steady(1000, func(int) float64 { return 1 })
	failed[500].ok = false
	if rungPasses(failed, 50) {
		t.Fatal("a rate with a failed operation passed")
	}
	growing := steady(1000, func(i int) float64 { return 1 + float64(i)/100 })
	if rungPasses(growing, 50) {
		t.Fatal("a rate with a growing backlog passed")
	}
}

func TestMaxPassingRate(t *testing.T) {
	rungs := ladder(100, 1000, 1.1)
	if rungs[0] != 100 || rungs[len(rungs)-1] > 1000 || !sort.Float64sAreSorted(rungs) {
		t.Fatalf("ladder %v", rungs)
	}
	for _, capacity := range []float64{50, 100, 333, 999, 5000} {
		probes := 0
		got := maxPassingRate(rungs, func(rate float64) bool {
			probes++
			return rate <= capacity
		})
		want := 0.0
		for _, r := range rungs {
			if r <= capacity {
				want = r
			}
		}
		if got != want {
			t.Errorf("capacity %v: got %v, want %v", capacity, got, want)
		}
		if probes > 6 {
			t.Errorf("capacity %v: %d probes for %d rungs", capacity, probes, len(rungs))
		}
	}
}

func TestWindowedQuantileTakesTheMedianWindow(t *testing.T) {
	res := steady(3000, func(int) float64 { return 1 })
	for i := 0; i < 100; i++ {
		res[i].lat = 500 * time.Millisecond // a stall inside the first window
	}
	if got := windowedQuantile(inOrder(res), 3, 0.99); got != 1 {
		t.Fatalf("windowed p99 %v, want 1: one window's stall must not set it", got)
	}
	for i := 0; i < 1200; i++ {
		res[i].lat = 3 * time.Millisecond // a slow stretch over 4 of 10 windows
	}
	if got := windowedQuantile(inOrder(res), 10, 0.5); got != 1 {
		t.Fatalf("windowed p50 %v, want 1: a slow stretch under half the windows must not set it", got)
	}
}

// TestBenchmarkFileListsTheReportedMetrics keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkFileListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		file []named
		code []struct{ name, unit string }
	}{{"end-to-end", spec.EndToEnd, endToEndMetrics}, {"per-layer", spec.PerLayer, layerMetrics}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(c.file), c.kind, len(c.code))
		}
		for i, m := range c.code {
			if c.file[i].Name != m.name || c.file[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark reports %s (%s)", c.kind, i, c.file[i], m.name, m.unit)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"train", "serve_read", "serve_mixed"}; len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("workloads %v, want %v", names, want)
	}
}
