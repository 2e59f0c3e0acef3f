// Command panebench is the repository benchmark. It builds one seeded
// workload in process, measures it for a fixed time, checks the program's
// answers, and prints the result as one JSON line:
//
//	bash panebench/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists and how it is sized):
//
//	train        core.ParallelPANE at the paper defaults on a held-out split
//	serve_read   open-loop HTTP reads against server.New on loopback
//	serve_mixed  reads beside edge and attribute writes, with a WAL and a
//	             live in-process follower
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the per-layer metrics, read from the program's obs registry and from
// timers the benchmark puts around calls into each package.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// opts are the command-line settings every workload reads.
type opts struct {
	seed    int64
	measure time.Duration
	traced  bool
	procs   int // worker threads and client connections: nproc
	setups  int // set-ups timed for setup_s (1 in a traced run)
}

// endToEndMetrics lists every end-to-end metric with its unit. Every
// untraced run prints all of them, so each is defined on every workload
// (README.md has the table):
//
//	                train                   serve_read           serve_mixed
//	primary_p50_ms  core.ParallelPANE       read, nominal rate   4-edge update
//	second_p50_ms   core.AffinityFromGraph  exact /top-links     replication lag
//	quality         held-out link AUC       ivf top-10 recall    follower top-10 recall
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"ok_share", "ratio"},
	{"primary_p50_ms", "ms"},
	{"second_p50_ms", "ms"},
	{"quality", "ratio"},
}

// report accumulates one run's result line.
type report struct {
	attempted, failed int
	problems          []string // failed output checks
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// count adds an operation phase's outcomes to attempted and failed.
func (r *report) count(res []opResult) {
	for _, x := range res {
		r.attempted++
		if !x.ok {
			r.failed++
		}
	}
}

func main() {
	workload := flag.String("workload", "", "train, serve_read or serve_mixed")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	o := opts{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		procs:   runtime.GOMAXPROCS(0),
		setups:  3,
	}
	if o.traced {
		o.setups = 1
	}
	var (
		r   *report
		err error
	)
	switch *workload {
	case "train":
		r, err = runTrain(o)
	case "serve_read":
		r, err = runServeRead(o)
	case "serve_mixed":
		r, err = runServeMixed(o)
	default:
		err = fmt.Errorf("unknown --workload %q (want train, serve_read or serve_mixed)", *workload)
	}
	if err != nil {
		fail(err)
	}
	r.set("mem_peak_mb", peakRSSMB())
	if err := emit(r, o.traced); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "panebench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the metrics of the run's mode — every end-to-end one, or
// every per-layer one — as lines for people, then the result line.
func emit(r *report, traced bool) error {
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	r.set("ok_share", float64(r.attempted-r.failed)/float64(r.attempted))
	list := endToEndMetrics
	if traced {
		zeroLayers(r)
		list = layerMetrics
	}
	out := map[string]metric{}
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok {
			return fmt.Errorf("the workload did not measure metric %s", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number: %v", m.name, v)
		}
		out[m.name] = metric{v, m.unit}
		fmt.Printf("%-32s %14.4f %s\n", m.name, v, m.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "panebench: output check failed:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timeMedian runs f n times and returns the median wall time in seconds.
func timeMedian(n int, f func() error) (float64, error) {
	times := make([]float64, n)
	for i := range times {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(times)
	return quantile(times, 0.5), nil
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) count at
// the current resident set, where the kernel supports it.
func resetPeakRSS() {
	// Best effort: without it the peak also covers the set-up.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the runtime's own view of memory obtained from the OS.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
