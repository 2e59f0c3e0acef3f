package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/eval"
	"pane/internal/graph"
	"pane/internal/mat"
)

// graphConfig is the generated graph every workload runs on: mean
// out-degree 8, 100 attributes, about 6 attributes per node, 50
// communities.
func graphConfig(n int, seed int64) datagen.Config {
	return datagen.Config{
		Name: "panebench", N: n, AvgOutDeg: 8, D: 100, AttrsPer: 6,
		Communities: 50, Seed: seed,
	}
}

const (
	trainNodes  = 50000 // paper-default training graph
	embeddingK  = 128   // space budget k of every trained model
	heldOutFrac = 0.3   // edges held out for link prediction (Table 5)
	// affinityRuns is how many core.AffinityFromGraph calls second_p50_ms
	// on train is the median of.
	affinityRuns = 5
	// trainSetups is how many set-ups setup_s on train is the median of:
	// a graph build and split take half a second, so more of them than a
	// serving set-up's steady the median cheaply.
	trainSetups = 7
)

// runTrain measures core.ParallelPANE at the paper defaults (α = 0.5,
// ε = 0.015, so t = 6) on the graph with 30% of its edges held out and
// times core.AffinityFromGraph on its own, then checks the objective and
// the held-out link AUC. Set-up is the graph build and the link split.
func runTrain(o opts) (*report, error) {
	r := newReport()
	var split *eval.LinkSplit
	setups := trainSetups
	if o.traced {
		setups = o.setups
	}
	setup, err := timeMedian(setups, func() error {
		split = nil
		runtime.GC()
		g, err := datagen.Generate(graphConfig(trainNodes, o.seed))
		if err != nil {
			return err
		}
		split = eval.SplitLinks(g, heldOutFrac, rand.New(rand.NewSource(o.seed)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	g := split.Train
	cfg := core.Config{K: embeddingK, Alpha: 0.5, Eps: 0.015, Threads: o.procs, Seed: o.seed}

	// Training starts from a clean slate: the set-ups' garbage collected and
	// returned to the OS, and the peak resident set restarted, so that
	// mem_peak_mb is the training's own peak.
	debug.FreeOSMemory()
	resetPeakRSS()
	t0 := time.Now()
	emb, err := core.ParallelPANE(g, cfg)
	if err != nil {
		return nil, err
	}
	trainS := time.Since(t0).Seconds()
	r.attempted = 1

	// The objective needs the affinity matrices again; computing them is
	// the workload's second timed operation, each call after a collection
	// so that none pays for the garbage of the one before.
	var f, b *mat.Dense
	times := make([]float64, affinityRuns)
	for i := range times {
		f, b = nil, nil
		runtime.GC()
		t0 := time.Now()
		f, b = core.AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), o.procs)
		times[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(times)
	affinity := quantile(times, 0.5)
	objective := core.Objective(emb, f, b)
	auc, _ := split.Evaluate(core.NewLinkScorer(emb).Directed)
	r.check(!math.IsNaN(objective) && !math.IsInf(objective, 0) && objective > 0,
		"train objective %v is not a finite positive number", objective)
	r.check(auc > 0.5, "held-out link AUC %v is not above 0.5", auc)

	r.set("setup_s", setup)
	r.set("primary_p50_ms", trainS*1e3)
	r.set("second_p50_ms", affinity*1e3)
	r.set("quality", auc)
	r.set("train_objective", objective)
	if !o.traced {
		return r, nil
	}
	emb, f, b = nil, nil, nil
	return r, traceTrain(r, g, cfg, trainS)
}

// traceTrain re-runs the training of runTrain as its public parts —
// core.AffinityFromGraph, then core.PSVDCCD — timing each, and times a
// separate core.SMGreedyInit on the same input to split PSVDCCD into its
// initializer and its CCD sweeps.
func traceTrain(r *report, g *graph.Graph, cfg core.Config, untracedS float64) error {
	runtime.GC()
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f, b := core.AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), cfg.Threads)
	affS := time.Since(t0).Seconds()
	runtime.ReadMemStats(&mid)

	// PSVDCCD seeds its own generator from cfg.Seed and runs min(t, 3)
	// power iterations when cfg.PowerIters is unset; the timed copy of its
	// initializer gets the same input.
	power := cfg.PowerIters
	if power == 0 {
		power = min(cfg.Iterations(), 3)
	}
	t0 = time.Now()
	_ = core.SMGreedyInit(f, b, cfg.K, power, rand.New(rand.NewSource(cfg.Seed)), cfg.Threads)
	initS := time.Since(t0).Seconds()

	var initDone runtime.MemStats
	runtime.ReadMemStats(&initDone)
	t0 = time.Now()
	emb := core.PSVDCCD(f, b, cfg, cfg.Threads)
	solveS := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	if emb.Xf.Rows != g.N {
		return fmt.Errorf("PSVDCCD returned %d rows for %d nodes", emb.Xf.Rows, g.N)
	}

	allocMB := float64((mid.TotalAlloc-before.TotalAlloc)+(after.TotalAlloc-initDone.TotalAlloc)) / (1 << 20)
	r.set("core.affinity_s", affS)
	r.set("core.init_s", initS)
	r.set("core.ccd_s", solveS-initS)
	r.set("core.train_alloc_mb", allocMB)
	r.set("trace.overhead", (affS+solveS)/untracedS-1)
	return nil
}
