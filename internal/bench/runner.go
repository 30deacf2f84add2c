package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"thymesisflow/internal/metrics"
	"thymesisflow/internal/trace"
)

// Runner executes the independent cells of an experiment — one (config,
// thread-count, workload) tuple each — across a bounded worker pool.
//
// Parallelism cannot perturb results: every cell builds its own
// sim.Kernel (its own virtual clock, event queue and seeded PRNGs), so a
// cell computes bit-identical results no matter which OS thread runs it
// or in what order cells complete. Each figure then formats its table
// from the completed cell slice in cell order, which makes the printed
// output byte-identical to a sequential run. See EXPERIMENTS.md §"Parallel
// runner".
type Runner struct {
	workers int

	// Tracer, when non-nil, is attached to each cell's kernel, recording
	// cross-layer spans into one shared sink (trace.Ring is safe for
	// concurrent cells). Traced cells additionally run a short functional
	// datapath probe so llc/capi/rmmu/phy activity appears in the trace even
	// for workloads priced through the analytic backend. Leave nil for
	// byte-identical untraced results.
	Tracer trace.Tracer
	// Metrics, when non-nil, receives per-cell cluster telemetry
	// (registered under a per-cell prefix; see Cluster.RegisterMetrics).
	Metrics *metrics.Registry
}

// NewRunner returns a runner with the given worker count; workers <= 0
// selects GOMAXPROCS (all available cores). NewRunner(1) is the
// sequential reference path.
func NewRunner(workers int) *Runner {
	return &Runner{workers: workers}
}

// seqRunner backs the package-level figure functions, preserving their
// original sequential behaviour.
var seqRunner = NewRunner(1)

// Workers reports the effective worker count for a job of n cells.
func (r *Runner) Workers(n int) int {
	w := r.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes fn(0..n-1), each call exactly once, across the pool and
// returns when all calls have completed. With one worker the cells run
// in index order on the calling goroutine. A panic inside a cell is
// re-raised on the caller — the lowest-index panic wins, so failure
// behaviour is deterministic too.
func (r *Runner) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := r.Workers(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	panics := make([]any, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							panics[i] = p
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
