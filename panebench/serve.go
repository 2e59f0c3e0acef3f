package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/engine"
	"pane/internal/graph"
	"pane/internal/obs"
	"pane/internal/replica"
	"pane/internal/server"
	"pane/internal/wal"
)

const (
	// serveNodes sizes the serving graph. At this size a 4-edge update's
	// t-hop frontier fits the engine's 20% affinity budget only with
	// t = 1, which is why the served model is trained at ε = 0.25.
	serveNodes = 20000
	serveEps   = 0.25
	// followerPoll is how often the follower asks the leader for records
	// while caught up: well below the per-record apply time.
	followerPoll = 5 * time.Millisecond
	// serveGraphSeed fixes the serving graph and its model: the workload
	// seed varies the traffic, not the dataset, so runs with different
	// seeds measure the same system under different request streams.
	serveGraphSeed = 1
)

// paneserveIndex is paneserve's default serving index for a freshly
// trained model: exact plus IVF, the SQ8 and FP16 tiers, one shard.
var paneserveIndex = engine.IndexConfig{IVF: true, Quantize: true, FP16: true, Shards: 1}

// setupTimes splits one set-up of the serving stack.
type setupTimes struct {
	train, index, bootstrap float64 // seconds
}

// stack is one serving set-up: a leader engine behind server.New on a
// loopback listener and, for serve_mixed, a write-ahead log and an
// in-process follower tailing the leader.
type stack struct {
	g       *graph.Graph
	eng     *engine.Engine
	reg     *obs.Registry
	model   *engine.Model // the model at set-up; serve_read never moves it
	baseURL string
	srv     *http.Server
	served  chan error

	// serve_mixed only.
	dir      string
	wlog     *wal.Log
	wfs      *timedFS
	follower *replica.Replica
	leaderUp *updateLog // the leader's engine.UpdateStats, one per version
	applied  *stampLog  // when the follower applied each version
}

// newStack builds the serving stack from the generated graph: training
// at ε = 0.25, the engine with paneserve's default index (waiting for it),
// the listener and, with withFollower, the WAL and the follower.
func newStack(o opts, dir string, withFollower bool) (*stack, setupTimes, error) {
	var st setupTimes
	g, err := datagen.Generate(graphConfig(serveNodes, serveGraphSeed))
	if err != nil {
		return nil, st, err
	}
	cfg := core.Config{K: embeddingK, Alpha: 0.5, Eps: serveEps, Threads: o.procs, Seed: serveGraphSeed}
	t0 := time.Now()
	emb, err := core.ParallelPANE(g, cfg)
	if err != nil {
		return nil, st, err
	}
	st.train = time.Since(t0).Seconds()

	s := &stack{g: g, reg: obs.NewRegistry(), leaderUp: &updateLog{}}
	t0 = time.Now()
	s.eng, err = engine.New(g, emb, cfg,
		engine.WithMetricsRegistry(s.reg),
		engine.WithFallbackIndex(paneserveIndex),
		engine.WithUpdateObserver(s.leaderUp.add))
	if err != nil {
		return nil, st, err
	}
	s.eng.WaitForIndex()
	st.index = time.Since(t0).Seconds()
	s.model = s.eng.Model()

	if withFollower {
		s.dir = dir
		s.wfs = &timedFS{FS: wal.OSFS()}
		s.wlog, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncAlways, FS: s.wfs})
		if err != nil {
			return nil, st, err
		}
		if err := s.eng.AttachWAL(s.wlog); err != nil {
			s.wlog.Close()
			return nil, st, err
		}
	}
	if err := s.listen(); err != nil {
		s.close()
		return nil, st, err
	}
	if withFollower {
		t0 = time.Now()
		s.applied = &stampLog{}
		s.follower, err = replica.Bootstrap(context.Background(),
			replica.Options{Leader: s.baseURL, Poll: followerPoll},
			engine.WithFallbackIndex(paneserveIndex),
			engine.WithUpdateObserver(func(u engine.UpdateStats) { s.applied.stamp(u.Version) }))
		if err != nil {
			s.close()
			return nil, st, err
		}
		st.bootstrap = time.Since(t0).Seconds()
	}
	return s, st, nil
}

// listen serves the leader on a loopback port.
func (s *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.baseURL = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: server.New(s.eng), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return nil
}

// close stops the listener and waits for it, then closes the WAL and
// removes the set-up's files.
func (s *stack) close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.wlog != nil {
		errs = append(errs, s.wlog.Close())
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// setUp builds the stack o.setups times, keeps the last one, and returns
// the median set-up time with the last set-up's split. prepare runs inside
// each timed set-up after the stack is built.
func setUp(o opts, withFollower bool, prepare func(*stack) error) (*stack, float64, setupTimes, error) {
	var (
		s   *stack
		st  setupTimes
		err error
	)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, 0, st, err
	}
	runDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, 0, st, err
	}
	n := 0
	median, err := timeMedian(o.setups, func() error {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
			s = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		n++
		s, st, err = newStack(o, filepath.Join(runDir, fmt.Sprint(n)), withFollower)
		if err != nil {
			return err
		}
		if prepare != nil {
			return prepare(s)
		}
		return nil
	})
	if err != nil {
		if s != nil {
			s.close()
		}
		os.RemoveAll(runDir)
		return nil, 0, st, err
	}
	s.dir = runDir // close removes every set-up's files
	return s, median, st, nil
}

// updateLog keeps the leader's per-update statistics. The engine calls add
// under its write lock; readers take a copy once writes have stopped.
type updateLog struct {
	mu  sync.Mutex
	all []engine.UpdateStats
}

func (l *updateLog) add(u engine.UpdateStats) {
	l.mu.Lock()
	l.all = append(l.all, u)
	l.mu.Unlock()

}

func (l *updateLog) since(n int) []engine.UpdateStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]engine.UpdateStats(nil), l.all[n:]...)
}

func (l *updateLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.all)
}

// stampLog records when each model version became visible somewhere.
type stampLog struct {
	mu sync.Mutex
	at map[uint64]time.Time
}

func (l *stampLog) stamp(v uint64) {
	now := time.Now()
	l.mu.Lock()
	if l.at == nil {
		l.at = map[uint64]time.Time{}
	}
	l.at[v] = now
	l.mu.Unlock()
}

func (l *stampLog) get(v uint64) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.at[v]
	return t, ok
}
