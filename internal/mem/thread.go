package mem

import (
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/sim"
)

// CPUConfig describes one simulated hardware thread, calibrated to the
// POWER9 cores in the paper's AC922 machines.
type CPUConfig struct {
	FreqGHz float64 // core clock
	BaseIPC float64 // retired instructions/cycle with no memory stalls
	MLP     int     // outstanding demand misses a thread can sustain
	L1Size  int64
	L1Ways  int
	L1Lat   sim.Time
	L2Size  int64
	L2Ways  int
	L2Lat   sim.Time
	LLCLat  sim.Time
}

// DefaultCPUConfig mirrors a POWER9 SMT4 hardware thread.
func DefaultCPUConfig() CPUConfig {
	return CPUConfig{
		FreqGHz: 3.8,
		BaseIPC: 2.0,
		MLP:     22,
		L1Size:  32 * 1024,
		L1Ways:  8,
		L1Lat:   1 * sim.Nanosecond,
		L2Size:  512 * 1024,
		L2Ways:  8,
		L2Lat:   4 * sim.Nanosecond,
		LLCLat:  26 * sim.Nanosecond,
	}
}

// Thread is the execution context of one simulated software thread: private
// L1/L2 caches, a socket binding (selecting the shared LLC), and perf-style
// accounting. Thread methods advance virtual time via the owning process.
type Thread struct {
	sys  *System
	cfg  CPUConfig
	l1   *Cache
	l2   *Cache
	sock int

	perf metrics.PerfSample
}

// NewThread creates a thread bound to the given socket.
func NewThread(sys *System, socket int, cfg CPUConfig) *Thread {
	return &Thread{
		sys:  sys,
		cfg:  cfg,
		l1:   NewCache("L1D", cfg.L1Size, cfg.L1Ways),
		l2:   NewCache("L2", cfg.L2Size, cfg.L2Ways),
		sock: socket,
	}
}

// Socket returns the socket this thread runs on.
func (t *Thread) Socket() int { return t.sock }

// Perf returns the accumulated perf counters.
func (t *Thread) Perf() metrics.PerfSample { return t.perf }

// ResetPerf zeroes the perf counters.
func (t *Thread) ResetPerf() { t.perf = metrics.PerfSample{} }

func (t *Thread) cyclesFor(d sim.Time) int64 {
	return int64(float64(d) / 1000 * t.cfg.FreqGHz) // d ps * cycles/ns
}

// Compute models pure CPU work: instr retired instructions at the thread's
// base IPC. It advances virtual time and accounts busy cycles.
func (t *Thread) Compute(p *sim.Proc, instr int64) {
	if instr <= 0 {
		return
	}
	cycles := int64(float64(instr) / t.cfg.BaseIPC)
	if cycles == 0 {
		cycles = 1
	}
	d := sim.Time(float64(cycles) * 1000 / t.cfg.FreqGHz)
	t.perf.Instructions += instr
	t.perf.Cycles += cycles
	t.perf.TaskClockPS += int64(d)
	p.Sleep(d)
}

// Access models a demand load/store of size bytes starting at addr. It walks
// the cache hierarchy per cacheline, prices the misses through the owning
// NUMA node's backend (grouped per node so a burst pays the base latency
// once), advances virtual time, and accounts one ld/st instruction per line
// plus backend-stall cycles for the wait.
func (t *Thread) Access(p *sim.Proc, addr uint64, size int64, write bool) sim.Time {
	if size <= 0 {
		return 0
	}
	llc := t.sys.LLC(t.sock)
	// Misses are grouped into per-node bursts, accumulated in first-touch
	// order in a small stack-allocated buffer: one access rarely spans more
	// than a handful of NUMA nodes, and the former map version allocated
	// twice per missing access on the simulator's single hottest path (and
	// issued the bursts in randomized map order).
	type nodeBurst struct {
		id    NodeID
		bytes int64
		first uint64
	}
	var burstBuf [8]nodeBurst
	bursts := burstBuf[:0]
	lines := int64(0)
	first := addr &^ (CachelineSize - 1)
	last := (addr + uint64(size) - 1) &^ (CachelineSize - 1)
	var hitLat sim.Time
	for la := first; la <= last; la += CachelineSize {
		lines++
		if t.l1.Lookup(la) {
			hitLat += t.cfg.L1Lat
			continue
		}
		if t.l2.Lookup(la) {
			hitLat += t.cfg.L2Lat
			continue
		}
		if llc != nil && llc.Lookup(la) {
			hitLat += t.cfg.LLCLat
			continue
		}
		id := t.sys.NodeOf(la)
		idx := -1
		for i := range bursts {
			if bursts[i].id == id {
				idx = i
				break
			}
		}
		if idx < 0 {
			bursts = append(bursts, nodeBurst{id: id, first: la})
			idx = len(bursts) - 1
		}
		bursts[idx].bytes += CachelineSize
	}
	var missLat sim.Time
	for i := range bursts {
		b := &bursts[i]
		be := t.sys.Node(b.id).Backend
		var l sim.Time
		if ab, ok := be.(AddrBackend); ok {
			l = ab.AccessAt(b.first, b.bytes, write)
		} else {
			l = be.Access(b.bytes, write)
		}
		if l > missLat {
			missLat = l // bursts to different nodes overlap
		}
	}
	total := hitLat + missLat
	t.perf.Instructions += lines
	busy := t.cyclesFor(total)
	if busy == 0 {
		busy = 1
	}
	t.perf.Cycles += busy
	// Cycles beyond one issue slot per line are memory stalls.
	stall := busy - lines
	if stall > 0 {
		t.perf.StallBackend += stall
	}
	t.perf.TaskClockPS += int64(total)
	if total > 0 {
		p.Sleep(total)
	}
	return total
}

// HitAccess models `lines` cacheline touches that hit in an on-chip cache
// at a fixed per-line latency (e.g. LLC-resident index upper levels or
// language-runtime heap structures whose cost is identical across memory
// configurations). It accounts one instruction per line plus backend-stall
// cycles for the wait, exactly like Access, but without perturbing the
// simulated cache state.
func (t *Thread) HitAccess(p *sim.Proc, lines int64, perLine sim.Time) sim.Time {
	if lines <= 0 {
		return 0
	}
	total := sim.Time(lines) * perLine
	t.perf.Instructions += lines
	busy := t.cyclesFor(total)
	if busy == 0 {
		busy = 1
	}
	t.perf.Cycles += busy
	if stall := busy - lines; stall > 0 {
		t.perf.StallBackend += stall
	}
	t.perf.TaskClockPS += int64(total)
	p.Sleep(total)
	return total
}

// StreamChunk models a streaming (prefetched, bandwidth-bound) pass over
// bytes residing on a single NUMA node, as STREAM-style kernels do. The
// chunk time is the maximum of the thread's memory-level-parallelism limit
// and the backend's (queued) bandwidth. Caches are bypassed: STREAM's
// footprint is far beyond cache capacity.
func (t *Thread) StreamChunk(p *sim.Proc, node NodeID, bytes int64, flops int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	be := t.sys.Node(node).Backend
	// Per-thread streaming ceiling from Little's law: MLP outstanding lines
	// over the unloaded latency.
	lat := be.BaseLatency()
	if lat <= 0 {
		lat = sim.Nanosecond
	}
	perThread := float64(t.cfg.MLP) * CachelineSize / lat.Seconds()
	minTime := sim.DurationForBytes(bytes, perThread)
	done := be.ReserveStream(bytes)
	transfer := done - p.Now()
	total := transfer
	if minTime > total {
		total = minTime
	}
	// FLOPs overlap with memory in STREAM; they only matter if compute-bound.
	if flops > 0 {
		ct := sim.Time(float64(flops) / t.cfg.BaseIPC * 1000 / t.cfg.FreqGHz)
		if ct > total {
			total = ct
		}
	}
	lines := bytes / CachelineSize
	t.perf.Instructions += lines + flops
	busy := t.cyclesFor(total)
	t.perf.Cycles += busy
	if stall := busy - lines - flops; stall > 0 {
		t.perf.StallBackend += stall
	}
	t.perf.TaskClockPS += int64(total)
	p.Sleep(total)
	return total
}
