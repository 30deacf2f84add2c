// Package kvcache implements an in-memory application-level cache modelled
// on Memcached plus the Facebook "ETC" workload generator of Atikoglu et
// al., reproducing the paper's Figure 8 (GET latency CDFs across memory
// configurations) including the Twemproxy-fronted scale-out deployment.
//
// The cache is a real slab allocator with size classes, a hash index and an
// LRU per-item chain; its arena lives in simulated memory so every item
// header touch and value read is priced through the host's cache hierarchy
// and NUMA placement.
package kvcache

import (
	"fmt"

	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
)

// itemOverhead is the per-item metadata footprint (memcached's item header,
// hash-chain pointer and CAS bookkeeping).
const itemOverhead = 56

// slabClasses are the value-size classes of the slab allocator.
var slabClasses = []int64{64, 128, 256, 512, 1024, 2048, 4096, 8192}

type item struct {
	key  uint64
	size int64 // value bytes
	off  int64 // arena offset of the item (header + value)
	cls  int

	// Intrusive LRU list.
	prev, next *item
}

// Server is one cache instance.
type Server struct {
	arena *mem.Buffer

	capacity int64
	used     int64

	index map[uint64]*item
	// LRU sentinel: head.next is most recent.
	head, tail *item

	// Per-class free offsets.
	free    [][]int64
	nextOff int64

	// Workers is the worker-thread pool (memcached defaults to 4).
	workers *workerPool

	hits, misses, sets, evicts int64

	// values optionally stores real bytes for functional verification.
	values map[uint64][]byte
}

// ServerConfig parameterizes a cache instance.
type ServerConfig struct {
	// CapacityBytes is the cache memory limit (paper: 10 GiB; scaled in
	// simulation, see DESIGN.md).
	CapacityBytes int64
	// Workers is the worker thread count (memcached -t, default 4).
	Workers int
	// StoreValues keeps real value bytes for functional tests.
	StoreValues bool
}

// NewServer allocates the cache arena on the host with the given placement
// policy.
func NewServer(host *core.Host, placer numa.Placer, cfg ServerConfig) (*Server, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, fmt.Errorf("kvcache: capacity %d", cfg.CapacityBytes)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	arena, err := host.Mem.Alloc(cfg.CapacityBytes, placer)
	if err != nil {
		return nil, fmt.Errorf("kvcache: arena: %w", err)
	}
	s := &Server{
		arena:    arena,
		capacity: cfg.CapacityBytes,
		index:    make(map[uint64]*item),
		free:     make([][]int64, len(slabClasses)),
		workers:  newWorkerPool(host, cfg.Workers),
	}
	h, t := &item{}, &item{}
	h.next, t.prev = t, h
	s.head, s.tail = h, t
	if cfg.StoreValues {
		s.values = make(map[uint64][]byte)
	}
	return s, nil
}

func classFor(size int64) (int, error) {
	for i, c := range slabClasses {
		if size+itemOverhead <= c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("kvcache: value of %d bytes exceeds largest slab class", size)
}

func (s *Server) lruPush(it *item) {
	it.prev = s.head
	it.next = s.head.next
	s.head.next.prev = it
	s.head.next = it
}

func (s *Server) lruRemove(it *item) {
	it.prev.next = it.next
	it.next.prev = it.prev
}

func (s *Server) lruTouch(it *item) {
	s.lruRemove(it)
	s.lruPush(it)
}

// alloc finds an arena slot for the class, evicting LRU items if needed.
func (s *Server) alloc(cls int) (int64, error) {
	if fl := s.free[cls]; len(fl) > 0 {
		off := fl[len(fl)-1]
		s.free[cls] = fl[:len(fl)-1]
		s.used += slabClasses[cls]
		return off, nil
	}
	if s.nextOff+slabClasses[cls] <= s.capacity {
		off := s.nextOff
		s.nextOff += slabClasses[cls]
		s.used += slabClasses[cls]
		return off, nil
	}
	// Evict from the LRU tail until a slot of this class frees up.
	for s.tail.prev != s.head {
		victim := s.tail.prev
		s.evict(victim)
		if fl := s.free[cls]; len(fl) > 0 {
			off := fl[len(fl)-1]
			s.free[cls] = fl[:len(fl)-1]
			s.used += slabClasses[cls]
			return off, nil
		}
	}
	return 0, fmt.Errorf("kvcache: arena exhausted for class %d", cls)
}

func (s *Server) evict(it *item) {
	s.lruRemove(it)
	delete(s.index, it.key)
	s.free[it.cls] = append(s.free[it.cls], it.off)
	s.used -= slabClasses[it.cls]
	s.evicts++
	if s.values != nil {
		delete(s.values, it.key)
	}
}

// bucketAddr maps a key to its hash-bucket cacheline. The hash table is
// interleaved in the arena like memcached's, so bucket probes hit scattered
// lines across the full cache footprint.
func (s *Server) bucketAddr(key uint64) uint64 {
	line := (key * 0x9E3779B97F4A7C15) % uint64(s.capacity/mem.CachelineSize)
	return s.arena.Addr(int64(line) * mem.CachelineSize)
}

// Get serves a GET on the calling (already acquired) worker thread. It
// prices the hash-bucket probe, the item-header touch (memcached updates
// LRU state on every hit) and the value read. Returns the value when
// StoreValues is enabled.
func (s *Server) Get(p *sim.Proc, th *mem.Thread, key uint64) (val []byte, hit bool) {
	// Hash + bucket probe (a scattered cacheline in the arena).
	th.Compute(p, 400)
	th.Access(p, s.bucketAddr(key), 8, false)
	it, ok := s.index[key]
	if !ok {
		s.misses++
		return nil, false
	}
	// Item header access (dependent pointer chase) + LRU touch write.
	th.Access(p, s.arena.Addr(it.off), itemOverhead, true)
	// Value read.
	th.Access(p, s.arena.Addr(it.off+itemOverhead), it.size, false)
	s.lruTouch(it)
	s.hits++
	if s.values != nil {
		val = s.values[key]
	}
	return val, true
}

// Set stores a value of the given size.
func (s *Server) Set(p *sim.Proc, th *mem.Thread, key uint64, size int64, value []byte) error {
	th.Compute(p, 500)
	th.Access(p, s.bucketAddr(key), 8, true)
	cls, err := classFor(size)
	if err != nil {
		return err
	}
	if old, ok := s.index[key]; ok {
		s.evict(old)
	}
	off, err := s.alloc(cls)
	if err != nil {
		return err
	}
	it := &item{key: key, size: size, off: off, cls: cls}
	s.index[key] = it
	s.lruPush(it)
	// Header + value write.
	th.Access(p, s.arena.Addr(off), itemOverhead+size, true)
	s.sets++
	if s.values != nil {
		s.values[key] = append([]byte(nil), value...)
	}
	return nil
}

// Stats returns (hits, misses, sets, evictions).
func (s *Server) Stats() (hits, misses, sets, evicts int64) {
	return s.hits, s.misses, s.sets, s.evicts
}

// HitRatio returns hits/(hits+misses).
func (s *Server) HitRatio() float64 {
	total := s.hits + s.misses
	if total == 0 {
		return 0
	}
	return float64(s.hits) / float64(total)
}

// UsedBytes returns the occupied arena bytes.
func (s *Server) UsedBytes() int64 { return s.used }

// workerPool hands out server worker threads (each with private L1/L2) to
// incoming requests, queueing FIFO when all workers are busy — the
// memcached event-loop worker model.
type workerPool struct {
	free []*mem.Thread
	sig  *sim.Signal
	all  []*mem.Thread
}

func newWorkerPool(host *core.Host, n int) *workerPool {
	wp := &workerPool{sig: sim.NewSignal(host.K)}
	for i := 0; i < n; i++ {
		th := host.NewThread(i)
		wp.free = append(wp.free, th)
		wp.all = append(wp.all, th)
	}
	return wp
}

func (wp *workerPool) acquire(p *sim.Proc) *mem.Thread {
	for len(wp.free) == 0 {
		wp.sig.Wait(p)
	}
	th := wp.free[len(wp.free)-1]
	wp.free = wp.free[:len(wp.free)-1]
	return th
}

func (wp *workerPool) release(th *mem.Thread) {
	wp.free = append(wp.free, th)
	wp.sig.Wake()
}
