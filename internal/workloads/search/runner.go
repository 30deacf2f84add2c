package search

import (
	"fmt"
	"math/rand"

	"thymesisflow/internal/core"
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
	wg := sim.NewWaitGroup(k)
	wg.Add(rc.Clients)
	for c := 0; c < rc.Clients; c++ {
		c := c
		k.Go(fmt.Sprintf("rally-%d", c), func(p *sim.Proc) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*131 + 17))
			// Match-all returns a full page of _source documents; the other
			// challenges return compact summaries.
			respBytes := int64(2048)
			if rc.Challenge == MA {
				respBytes = 24 << 10
			}
			for i := 0; i < rc.OpsPerClient; i++ {
				tb.ClientLink.Send(p, 300)
				hits := executeQuery(p, tb, engines, rc, rng)
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

// executeQuery runs one query: the coordinating node fans the request out
// to every shard (crossing the server Ethernet for shards hosted on the
// second instance under scale-out), waits for all shard responses, and
// reduces them.
func executeQuery(p *sim.Proc, tb *core.Testbed, engines []*Engine, rc RunConfig, rng *rand.Rand) int {
	k := p.Kernel()
	coord := engines[0].coord
	coord.Compute(p, coordInstr)

	tag := rng.Intn(rc.Corpus.Tags)
	date := int32(rng.Intn(4000))

	totalShards := 0
	for _, e := range engines {
		totalShards += len(e.shards)
	}
	wg := sim.NewWaitGroup(k)
	wg.Add(totalShards)
	hits := 0
	for ei, e := range engines {
		e := e
		remote := ei > 0
		for _, sh := range e.shards {
			sh := sh
			k.Go("shard-task", func(sp *sim.Proc) {
				defer wg.Done()
				if remote {
					tb.ServerLink.Send(sp, 400)
				}
				th := e.acquireThread(sp)
				var h int
				switch rc.Challenge {
				case RTQ:
					h = sh.runRTQ(sp, th, tag)
				case RNQIHBS:
					h = sh.runRNQIHBS(sp, th, tag, date)
				case RSTQ:
					h = sh.runRSTQ(sp, th, tag)
				case MA:
					h = sh.runMA(sp, th)
				}
				e.releaseThread(th)
				if remote {
					tb.ServerLink.SendReverse(sp, 1024)
				}
				hits += h
			})
		}
	}
	wg.Wait(p)
	coord.Compute(p, int64(totalShards)*mergeInstrPerShrd)
	return hits
}
