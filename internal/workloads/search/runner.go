package search

import (
	"fmt"
	"math/rand"

	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
)

// RunConfig parameterizes one Figure 9 cell.
type RunConfig struct {
	Challenge Challenge
	// Shards is the total shard count (the paper reports 5 and 32).
	Shards int
	// Clients is the concurrent search client count.
	Clients int
	// OpsPerClient is the measured query count per client.
	OpsPerClient int
	Corpus       CorpusConfig
	PoolThreads  int
}

// DefaultRunConfig returns calibrated parameters.
func DefaultRunConfig(ch Challenge, shards int) RunConfig {
	rc := RunConfig{
		Challenge:    ch,
		Shards:       shards,
		Clients:      64,
		OpsPerClient: 5,
		Corpus:       DefaultCorpusConfig(),
		PoolThreads:  48,
	}
	if ch == MA {
		// Match-all is cheap; more samples keep the measurement stable.
		rc.OpsPerClient = 30
	}
	return rc
}

// Result carries one cell of Figure 9.
type Result struct {
	Challenge  Challenge
	Shards     int
	Config     core.MemoryConfig
	Throughput float64 // queries/sec
	TotalHits  int64
}

// Run executes the challenge under one memory configuration. Each instance
// serves its share of the corpus from an index taken from ix, so runs that
// share ix build each index shape once.
func Run(cfgName core.MemoryConfig, rc RunConfig, ix *Indexes) (*Result, error) {
	if rc.Shards <= 0 || rc.Clients <= 0 || rc.OpsPerClient <= 0 {
		return nil, fmt.Errorf("search: bad run config %+v", rc)
	}
	// Shard arenas total ~ corpus footprint; keep the LLC proportion of the
	// paper's setup at simulation scale.
	tb, err := core.NewTestbedWith(cfgName, 4<<30, func(hc *core.HostConfig) {
		hc.LLCSizePerSocket = 16 << 20
	})
	if err != nil {
		return nil, err
	}
	k := tb.Cluster.K

	instances := tb.ServerInstances()
	engines := make([]*Engine, len(instances))
	shardsPer := rc.Shards / len(instances)
	if shardsPer == 0 {
		shardsPer = 1
	}
	for i, host := range instances {
		corpus := rc.Corpus
		corpus.Docs = rc.Corpus.Docs / len(instances)
		var placer numa.Placer
		if host == tb.Server {
			placer = tb.Placer()
		} else {
			placer = numa.Local(host.LocalNode(0))
		}
		index, err := ix.Get(corpus, shardsPer)
		if err != nil {
			return nil, err
		}
		engines[i], err = NewEngine(host, placer, index, rc.PoolThreads)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Challenge: rc.Challenge, Shards: rc.Shards, Config: cfgName}
	tasks := shardTasks(engines)
	wg := sim.NewWaitGroup(k)
	wg.Add(rc.Clients)
	for c := 0; c < rc.Clients; c++ {
		c := c
		k.Go(fmt.Sprintf("rally-%d", c), func(p *sim.Proc) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*131 + 17))
			q := newQuery(tb, engines[0].coord, tasks, rc)
			// Match-all returns a full page of _source documents; the other
			// challenges return compact summaries.
			respBytes := int64(2048)
			if rc.Challenge == MA {
				respBytes = 24 << 10
			}
			for i := 0; i < rc.OpsPerClient; i++ {
				tb.ClientLink.Send(p, 300)
				hits := q.execute(p, rng)
				res.TotalHits += int64(hits)
				tb.ClientLink.SendReverse(p, respBytes)
			}
		})
	}
	k.Go("join", func(p *sim.Proc) { wg.Wait(p) })
	start := k.Now()
	k.Run()
	window := k.Now() - start
	if window > 0 {
		res.Throughput = float64(rc.Clients*rc.OpsPerClient) / window.Seconds()
	}
	return res, nil
}

// shardTask is one shard of a query's fan-out: the engine serving it, and
// whether the request crosses the server Ethernet to reach it.
type shardTask struct {
	e      *Engine
	sh     *Shard
	remote bool
}

// shardTasks lists every shard of the engines in fan-out order, engine by
// engine. Shards hosted on any engine but the first (the second instance
// under scale-out) are remote to the coordinating node.
func shardTasks(engines []*Engine) []shardTask {
	var tasks []shardTask
	for ei, e := range engines {
		for _, sh := range e.shards {
			tasks = append(tasks, shardTask{e: e, sh: sh, remote: ei > 0})
		}
	}
	return tasks
}

// query is one search client's query record, reused for every query the
// client issues, so a query allocates no closure, WaitGroup or Signal.
//
// execute spawns one process per shard task, each running body, the one
// func bound to runTask. A task learns its shard from next on its first
// line, before it can park, and that is the shard a closure per task
// would have held: Go schedules every task's first wake at the current
// instant in spawn order, the kernel fires same-instant events in
// sequence order, so the i-th task to start is the i-th spawned. The
// spawns, events and their order are those of a closure per task, so
// the figures are unchanged.
type query struct {
	tb    *core.Testbed
	coord *mem.Thread
	rc    RunConfig
	tasks []shardTask
	wg    *sim.WaitGroup
	body  func(*sim.Proc)

	// The query in flight: the index of the next task to start, the
	// drawn parameters, and the hits summed so far.
	next int
	tag  int
	date int32
	hits int
}

// newQuery returns a client's query record over the fan-out tasks, with
// coord as the coordinating (REST) thread.
func newQuery(tb *core.Testbed, coord *mem.Thread, tasks []shardTask, rc RunConfig) *query {
	q := &query{tb: tb, coord: coord, rc: rc, tasks: tasks, wg: sim.NewWaitGroup(tb.Cluster.K)}
	q.body = q.runTask
	return q
}

// execute runs one query: the coordinating node fans the request out to
// every shard (crossing the server Ethernet for shards hosted on the
// second instance under scale-out), waits for all shard responses, and
// reduces them.
func (q *query) execute(p *sim.Proc, rng *rand.Rand) int {
	k := p.Kernel()
	q.coord.Compute(p, coordInstr)

	q.tag = rng.Intn(q.rc.Corpus.Tags)
	q.date = int32(rng.Intn(4000))
	q.next, q.hits = 0, 0
	q.wg.Add(len(q.tasks))
	for range q.tasks {
		k.Go("shard-task", q.body)
	}
	q.wg.Wait(p)
	q.coord.Compute(p, int64(len(q.tasks))*mergeInstrPerShrd)
	return q.hits
}

// runTask is the body of one shard task of the query in flight.
func (q *query) runTask(sp *sim.Proc) {
	t := &q.tasks[q.next]
	q.next++
	if t.remote {
		q.tb.ServerLink.Send(sp, 400)
	}
	w := t.e.acquireThread(sp)
	var h int
	switch q.rc.Challenge {
	case RTQ:
		h = t.sh.runRTQ(sp, w, q.tag)
	case RNQIHBS:
		h = t.sh.runRNQIHBS(sp, w, q.tag, q.date)
	case RSTQ:
		h = t.sh.runRSTQ(sp, w, q.tag)
	case MA:
		h = t.sh.runMA(sp, w)
	}
	t.e.releaseThread(w)
	if t.remote {
		q.tb.ServerLink.SendReverse(sp, 1024)
	}
	q.hits += h
	q.wg.Done()
}
