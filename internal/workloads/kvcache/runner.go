package kvcache

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
)

// RunConfig parameterizes the Figure 8 experiment.
type RunConfig struct {
	// Threads is the client thread count (paper: 64).
	Threads int
	// RequestsPerThread is the measured request count per client thread
	// (paper: 1M; scaled down by default — the latency distribution
	// stabilizes far earlier).
	RequestsPerThread int
	// CacheBytes is the cache capacity; Keys the key-space size. Defaults
	// preserve the paper's ~81% hit ratio at simulation scale.
	CacheBytes int64
	Keys       int64
	// ServiceInstr is the per-request server CPU cost (kernel TCP/IP +
	// event loop + parsing), the dominant term of memcached service time.
	ServiceInstr int64
	// ProxyInstr is the per-request cost of the single-threaded
	// Twemproxy instance used by the scale-out configuration.
	ProxyInstr int64
	// Workers per server instance (memcached -t default: 4).
	Workers int
}

// DefaultRunConfig returns calibrated parameters (see EXPERIMENTS.md for
// the scale mapping).
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Threads:           64,
		RequestsPerThread: 4000,
		CacheBytes:        208 << 20,
		Keys:              5_000_000,
		ServiceInstr:      280_000,
		ProxyInstr:        84_000,
		Workers:           4,
	}
}

// Result carries the Figure 8 measurements for one configuration.
type Result struct {
	Config core.MemoryConfig
	// GetLatency is the GET response-latency distribution in microseconds.
	GetLatency *metrics.Histogram
	// SetLatency is the SET distribution (the paper reports trends match).
	SetLatency *metrics.Histogram
	HitRatio   float64
	Throughput float64 // ops/sec
}

// Run executes the experiment under one memory configuration. Each server
// is warmed from wu, so runs that share wu warm each cache shape once.
func Run(cfgName core.MemoryConfig, rc RunConfig, wu *Warmups) (*Result, error) {
	// The key-space/LLC proportions drive cache-friendliness; shrink the
	// LLC in step with the scaled-down arena so the LLC covers the same
	// share of requests as at paper scale (see EXPERIMENTS.md).
	tb, err := core.NewTestbedWith(cfgName, rc.CacheBytes*2, func(hc *core.HostConfig) {
		hc.LLCSizePerSocket = 24 << 20
	})
	if err != nil {
		return nil, err
	}
	return RunOn(tb, rc, wu)
}

// RunOn executes the experiment on a caller-provided testbed (used by
// ablations that customize the attachment, e.g. the HBM caching layer),
// warming its servers from wu.
func RunOn(tb *core.Testbed, rc RunConfig, wu *Warmups) (*Result, error) {
	if rc.Threads <= 0 || rc.RequestsPerThread <= 0 {
		return nil, fmt.Errorf("kvcache: bad run config %+v", rc)
	}
	cfgName := tb.Config
	k := tb.Cluster.K
	var err error

	etc := DefaultETCConfig(rc.Keys)

	// Build server instances: one normally, two (half-capacity each,
	// hash-partitioned) for scale-out, fronted by a Twemproxy model.
	instances := tb.ServerInstances()
	servers := make([]*Server, len(instances))
	for i, host := range instances {
		capacity := rc.CacheBytes / int64(len(instances))
		var placer numa.Placer
		if host == tb.Server {
			placer = tb.Placer()
		} else {
			placer = numa.Local(host.LocalNode(0))
		}
		servers[i], err = NewServer(host, placer, ServerConfig{
			CapacityBytes: capacity,
			Workers:       rc.Workers,
		})
		if err != nil {
			return nil, err
		}
		wu.warm(servers[i], etc, i, len(instances))
	}

	proxy := newProxy(k, rc.ProxyInstr, instances[0])

	res := &Result{
		Config:     cfgName,
		GetLatency: metrics.NewHistogram(),
		SetLatency: metrics.NewHistogram(),
	}
	var ops int64
	wg := sim.NewWaitGroup(k)
	wg.Add(rc.Threads)
	for t := 0; t < rc.Threads; t++ {
		t := t
		k.Go(fmt.Sprintf("etc-client-%d", t), func(p *sim.Proc) {
			defer wg.Done()
			gen := NewGenerator(etc, int64(t))
			svcRng := NewGenerator(etc, int64(t)+100000) // jitter source
			for i := 0; i < rc.RequestsPerThread; i++ {
				op := gen.Next()
				start := p.Now()
				serve(p, tb, servers, proxy, rc, op, svcRng)
				lat := (p.Now() - start).Microseconds()
				if op.IsGet {
					res.GetLatency.Observe(lat)
				} else {
					res.SetLatency.Observe(lat)
				}
				ops++
			}
		})
	}
	k.Go("join", func(p *sim.Proc) { wg.Wait(p) })
	start := k.Now()
	k.Run()
	elapsed := k.Now() - start
	var hits, misses int64
	for _, s := range servers {
		h, m, _, _ := s.Stats()
		hits += h
		misses += m
	}
	if hits+misses > 0 {
		res.HitRatio = float64(hits) / float64(hits+misses)
	}
	if elapsed > 0 {
		res.Throughput = float64(ops) / elapsed.Seconds()
	}
	return res, nil
}

// serve prices one request end to end: client link, optional proxy hop,
// server worker service, response.
func serve(p *sim.Proc, tb *core.Testbed, servers []*Server, px *proxyModel,
	rc RunConfig, op Op, jitter *Generator) {
	const reqBytes = 60
	respBytes := int64(40)
	if op.IsGet {
		respBytes += op.Size
	}

	// Client -> data-centre ingress (10 GbE).
	tb.ClientLink.Send(p, reqBytes)

	scaleOut := len(servers) > 1
	var srv *Server
	if scaleOut {
		// Twemproxy terminates the client connection and forwards to the
		// hash-selected instance over the server network; the internal
		// network is not exposed to clients (Section VI-E).
		px.process(p)
		srv = servers[op.Key%uint64(len(servers))]
		if srv != servers[0] {
			tb.ServerLink.Send(p, reqBytes)
			defer tb.ServerLink.SendReverse(p, respBytes)
		}
	} else {
		srv = servers[0]
	}

	th := srv.workers.acquire(p)
	// Per-request network stack + event loop CPU with lognormal jitter.
	th.Compute(p, jitterInstr(rc.ServiceInstr, jitter))
	if op.IsGet {
		srv.Get(p, th, op.Key)
	} else {
		srv.Set(p, th, op.Key, op.Size, nil) //nolint:errcheck
	}
	srv.workers.release(th)

	// Response back to the client.
	tb.ClientLink.SendReverse(p, respBytes)
}

// jitterInstr applies ~N(0, 0.25) lognormal jitter to the service cost so
// latency tails reflect real service-time variability.
func jitterInstr(mean int64, g *Generator) int64 {
	u1 := g.rng.Float64()
	u2 := g.rng.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	n := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	const sigma = 0.25
	v := float64(mean) * math.Exp(sigma*n-sigma*sigma/2)
	return int64(v)
}

// warm fills the cache with the hottest keys (zipf-weighted draws) without
// advancing simulated time, as the paper's warm-up phase does before
// measurement.
func warm(s *Server, etc ETCConfig, shard, shards int) {
	gen := NewGenerator(etc, int64(shard)*31+999)
	target := s.capacity * 95 / 100
	maxDraws := etc.Keys * 4
	for draws := int64(0); draws < maxDraws && s.used < target; draws++ {
		// Only a key this shard keeps is sized.
		key, _ := gen.nextKey()
		if shards > 1 && key%uint64(shards) != uint64(shard) {
			continue
		}
		if _, ok := s.index[key]; ok {
			continue
		}
		size := valueSize(gen.mu, key)
		cls, err := classFor(size)
		if err != nil {
			continue
		}
		off, err := s.alloc(cls)
		if err != nil {
			break
		}
		it := &item{key: key, size: size, off: off, cls: cls}
		s.index[key] = it
		s.lruPush(it)
	}
	// Warm-up traffic does not count toward measured statistics.
	s.hits, s.misses, s.sets, s.evicts = 0, 0, 0, 0
}

// Warmups records each warm-up shape once, on first use, and replays the
// recorded contents into every server of that shape: warm-up draws from a
// fixed generator seed, so servers of one shape warm identically. It is
// safe for concurrent use, so the parallel cells of one figure can share
// it; the recordings live as long as the Warmups value does.
type Warmups struct {
	mu     sync.Mutex
	shapes map[warmShape]*warmPlan
}

// warmShape is everything warm's outcome depends on.
type warmShape struct {
	etc           ETCConfig
	capacity      int64
	shard, shards int
}

// warmPlan is a warmed cache: its items from the LRU tail to the head, so
// pushing them in order rebuilds the LRU chain, plus the slab allocator's
// state. Arena offsets are relative to the server's arena. once guards
// the recording.
type warmPlan struct {
	once    sync.Once
	items   []warmItem
	free    [][]int64
	nextOff int64
	used    int64
}

// warmItem is one cached item; sizes and classes are small, so it packs
// into 24 bytes.
type warmItem struct {
	key       uint64
	off       int64
	size, cls int32
}

// NewWarmups returns an empty warm-up set.
func NewWarmups() *Warmups {
	return &Warmups{shapes: make(map[warmShape]*warmPlan)}
}

// warm fills the fresh server s as warm would. The first request for a
// shape warms its server directly and records the plan; later requests
// replay it. Concurrent requests for one shape wait for the recording.
func (w *Warmups) warm(s *Server, etc ETCConfig, shard, shards int) {
	key := warmShape{etc, s.capacity, shard, shards}
	w.mu.Lock()
	pl := w.shapes[key]
	if pl == nil {
		pl = &warmPlan{}
		w.shapes[key] = pl
	}
	w.mu.Unlock()
	warmed := false
	pl.once.Do(func() {
		warm(s, etc, shard, shards)
		pl.record(s)
		warmed = true
	})
	if !warmed {
		pl.replay(s)
	}
}

// record fills the plan from the freshly warmed server s.
func (pl *warmPlan) record(s *Server) {
	pl.items = make([]warmItem, 0, len(s.index))
	for it := s.tail.prev; it != s.head; it = it.prev {
		pl.items = append(pl.items, warmItem{key: it.key, off: it.off, size: int32(it.size), cls: int32(it.cls)})
	}
	for _, fl := range s.free {
		pl.free = append(pl.free, slices.Clone(fl))
	}
	pl.nextOff, pl.used = s.nextOff, s.used
}

// replay loads the plan into the empty server s.
func (pl *warmPlan) replay(s *Server) {
	items := make([]item, len(pl.items))
	s.index = make(map[uint64]*item, len(pl.items))
	for i, w := range pl.items {
		it := &items[i]
		it.key, it.off, it.size, it.cls = w.key, w.off, int64(w.size), int(w.cls)
		s.index[w.key] = it
		s.lruPush(it)
	}
	for c, fl := range pl.free {
		s.free[c] = slices.Clone(fl)
	}
	s.nextOff, s.used = pl.nextOff, pl.used
}

// proxyModel is the single-threaded Twemproxy instance of the scale-out
// deployment.
type proxyModel struct {
	busy *sim.Resource
	th   *mem.Thread
	cost int64
}

func newProxy(k *sim.Kernel, instr int64, host *core.Host) *proxyModel {
	return &proxyModel{
		busy: sim.NewResource(k, 1),
		th:   host.NewThread(0),
		cost: instr,
	}
}

func (px *proxyModel) process(p *sim.Proc) {
	px.busy.Acquire(p, 1)
	px.th.Compute(p, px.cost)
	px.busy.Release(1)
}
