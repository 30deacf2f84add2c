// Package imdb implements a VoltDB/H-Store-style partitioned in-memory
// database: data is split into partitions, each owned by exactly one
// single-threaded executor, so single-partition transactions run without
// locks while write transactions pay a global-ordering exchange — the
// synchronization across data partitions whose interaction with memory
// latency drives the paper's Figure 6 (IPC / utilized-cores profiling) and
// Figure 7 (YCSB throughput) results.
//
// Cost model (calibrated against the paper's perf numbers — 55.5% backend
// stalls local, 80.9% single-disaggregated): every transaction passes
// through a single-threaded dispatch stage (VoltDB's network/initiator
// thread, the scaling limit for read-dominated workloads), then executes on
// its partition's thread as CPU work + LLC-resident index walking (equal in
// every configuration) + dependent pointer chases and a row access that go
// to DRAM or across ThymesisFlow depending on page placement.
package imdb

import (
	"fmt"

	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/workloads/ycsb"
)

// RecordBytes is the YCSB row size (10 fields x 100 bytes, rounded to a
// cacheline multiple).
const RecordBytes = 1024

// EngineConfig tunes the database engine.
type EngineConfig struct {
	// Partitions is the number of data partitions (the paper sweeps 4, 16,
	// 32, 64).
	Partitions int
	// Records is the table size in rows.
	Records int64
	// ReadInstr is the executor CPU cost of a single-row read.
	ReadInstr int64
	// WriteInstr is the executor CPU cost of an update/insert.
	WriteInstr int64
	// ScanInstrPerRow is the per-row CPU cost of a range scan.
	ScanInstrPerRow int64
	// DispatchInstr is the per-transaction CPU cost of the single-threaded
	// network/initiator stage; DispatchHotLines its LLC-resident buffer
	// touches (message deserialization).
	DispatchInstr    int64
	DispatchHotLines int64
	// HotLines is the number of LLC-resident cachelines touched per
	// transaction (index upper levels, plan cache, JVM heap).
	HotLines int64
	// ChaseDepth is the number of dependent (serialized) cacheline misses
	// per row lookup (index leaf walk).
	ChaseDepth int
	// ExchangeLat is the off-CPU wait a write transaction spends in the
	// global-ordering exchange with the other partitions. During this wait
	// the executor yields its core — the mechanism behind the paper's
	// utilized-cores observations.
	ExchangeLat sim.Time
	// ExchangeSlot is the serialized coordinator occupancy per write (the
	// ordering pipeline's per-transaction slot).
	ExchangeSlot sim.Time
}

// DefaultEngineConfig returns parameters calibrated to the paper's
// profiling numbers (Section VI-D).
func DefaultEngineConfig(partitions int) EngineConfig {
	return EngineConfig{
		Partitions:       partitions,
		Records:          400_000,
		ReadInstr:        7_000,
		WriteInstr:       9_000,
		ScanInstrPerRow:  2_500,
		DispatchInstr:    12_000,
		DispatchHotLines: 60,
		HotLines:         70,
		ChaseDepth:       5,
		ExchangeLat:      40 * sim.Microsecond,
		ExchangeSlot:     1250 * sim.Nanosecond,
	}
}

// llcHitLatency is the fixed cost of one LLC-resident line touch.
const llcHitLatency = 26 * sim.Nanosecond

// request is one transaction queued to a partition executor. Requests are
// recycled through the DB's free list, each keeping its Signal.
type request struct {
	op   ycsb.Op
	done *sim.Signal
}

// Partition is one data partition with its single-threaded executor.
type Partition struct {
	id    int
	db    *DB
	arena *mem.Buffer
	queue sim.FIFO[*request]
	work  *sim.Signal
	th    *mem.Thread

	executed int64
	chaseRng uint64
}

// DB is one database instance (one per server node; two under scale-out).
type DB struct {
	host       *core.Host
	cfg        EngineConfig
	partitions []*Partition

	// dispatch is the single-threaded network/initiator stage.
	dispatchQ    sim.FIFO[*request]
	dispatchWork *sim.Signal
	dispatchTh   *mem.Thread

	// free holds completed requests for Submit to reuse.
	free []*request

	// exchange serializes the write-ordering coordinator slot.
	exchange *sim.Resource
	stopped  bool
}

// New builds a database instance on the host with the given page placement.
func New(host *core.Host, placer numa.Placer, cfg EngineConfig) (*DB, error) {
	if cfg.Partitions <= 0 || cfg.Records <= 0 {
		return nil, fmt.Errorf("imdb: bad engine config %+v", cfg)
	}
	db := &DB{
		host:         host,
		cfg:          cfg,
		dispatchWork: sim.NewSignal(host.K),
		dispatchTh:   host.NewThread(0),
		exchange:     sim.NewResource(host.K, 1),
	}
	rowsPer := cfg.Records / int64(cfg.Partitions)
	for i := 0; i < cfg.Partitions; i++ {
		// Headroom for workload D/E inserts.
		arena, err := host.Mem.Alloc((rowsPer*3/2+1)*RecordBytes, placer)
		if err != nil {
			return nil, fmt.Errorf("imdb: partition %d arena: %w", i, err)
		}
		p := &Partition{
			id:       i,
			db:       db,
			arena:    arena,
			work:     sim.NewSignal(host.K),
			th:       host.NewThread(i),
			chaseRng: uint64(i)*0x9E3779B97F4A7C15 + 1,
		}
		db.partitions = append(db.partitions, p)
		db.startExecutor(p)
	}
	db.startDispatcher()
	return db, nil
}

// PartitionOf routes a key to its partition.
func (db *DB) PartitionOf(key uint64) *Partition {
	return db.partitions[key%uint64(len(db.partitions))]
}

// Submit enqueues a transaction and blocks the caller until it completes.
func (db *DB) Submit(p *sim.Proc, op ycsb.Op) {
	var req *request
	if n := len(db.free); n > 0 {
		req = db.free[n-1]
		db.free = db.free[:n-1]
		req.op = op
	} else {
		req = &request{op: op, done: sim.NewSignal(db.host.K)}
	}
	db.dispatchQ.Push(req)
	db.dispatchWork.Wake()
	req.done.Wait(p)
	db.free = append(db.free, req)
}

// Stop terminates the executors and dispatcher.
func (db *DB) Stop() {
	db.stopped = true
	db.dispatchWork.Broadcast()
	for _, part := range db.partitions {
		part.work.Broadcast()
	}
}

func (db *DB) startDispatcher() {
	db.host.K.Go("imdb-dispatch", func(proc *sim.Proc) {
		for {
			for db.dispatchQ.Len() == 0 {
				if db.stopped {
					return
				}
				db.dispatchWork.Wait(proc)
			}
			req := db.dispatchQ.Pop()
			// Network deserialize + transaction initiation.
			db.dispatchTh.Compute(proc, db.cfg.DispatchInstr)
			db.dispatchTh.HitAccess(proc, db.cfg.DispatchHotLines, llcHitLatency)
			part := db.PartitionOf(req.op.Key)
			part.queue.Push(req)
			part.work.Wake()
		}
	})
}

func (db *DB) startExecutor(part *Partition) {
	db.host.K.Go(fmt.Sprintf("imdb-exec-%d", part.id), func(proc *sim.Proc) {
		for {
			for part.queue.Len() == 0 {
				if db.stopped {
					return
				}
				// Idle executor yields its core (off-CPU wait).
				part.work.Wait(proc)
			}
			req := part.queue.Pop()
			part.execute(proc, req.op)
			part.executed++
			req.done.Broadcast()
		}
	})
}

// rowAddr returns the arena offset of a key owned by this partition.
func (part *Partition) rowAddr(key uint64) int64 {
	local := int64(key) / int64(len(part.db.partitions))
	maxRows := part.arena.Size / RecordBytes
	return (local % maxRows) * RecordBytes
}

// chase walks `depth` dependent index lines scattered over the partition
// arena: each access must complete before the next address is known, so
// remote latency is paid serially — the dominant term of the paper's
// backend-stall blow-up under disaggregation.
func (part *Partition) chase(proc *sim.Proc, depth int) {
	lines := uint64(part.arena.Size / mem.CachelineSize)
	for i := 0; i < depth; i++ {
		part.chaseRng = part.chaseRng*6364136223846793005 + 1442695040888963407
		off := int64(part.chaseRng%lines) * mem.CachelineSize
		part.th.Access(proc, part.arena.Addr(off), 8, false)
	}
}

// lookup prices one row lookup: LLC-resident index upper levels, the
// dependent leaf chase, and the row itself.
func (part *Partition) lookup(proc *sim.Proc, key uint64, write bool) {
	cfg := part.db.cfg
	part.th.HitAccess(proc, cfg.HotLines, llcHitLatency)
	part.chase(proc, cfg.ChaseDepth)
	part.th.Access(proc, part.arena.Addr(part.rowAddr(key)), RecordBytes, write)
}

func (part *Partition) execute(proc *sim.Proc, op ycsb.Op) {
	th := part.th
	cfg := part.db.cfg
	switch op.Kind {
	case ycsb.OpRead:
		th.Compute(proc, cfg.ReadInstr)
		part.lookup(proc, op.Key, false)
	case ycsb.OpUpdate, ycsb.OpInsert:
		th.Compute(proc, cfg.WriteInstr)
		part.lookup(proc, op.Key, true)
		part.globalExchange(proc)
	case ycsb.OpScan:
		n := op.ScanLen
		if n <= 0 {
			n = 1
		}
		th.Compute(proc, cfg.ReadInstr)
		part.lookup(proc, op.Key, false)
		base := part.rowAddr(op.Key)
		for i := 1; i < n; i++ {
			th.Compute(proc, cfg.ScanInstrPerRow)
			off := base + int64(i)*RecordBytes
			if off+RecordBytes > part.arena.Size {
				off = 0
			}
			th.Access(proc, part.arena.Addr(off), RecordBytes, false)
		}
	case ycsb.OpReadModifyWrite:
		th.Compute(proc, cfg.ReadInstr)
		part.lookup(proc, op.Key, false)
		th.Compute(proc, cfg.WriteInstr)
		th.Access(proc, part.arena.Addr(part.rowAddr(op.Key)), RecordBytes, true)
		part.globalExchange(proc)
	}
}

// globalExchange is the write-transaction ordering agreement: a short
// serialized slot on the coordinator plus an off-CPU wait for the ordering
// round to complete. Under disaggregation the executor's on-CPU (stalled)
// time grows while this wait stays constant, which raises the measured
// utilized-cores — the effect the paper reports in Section VI-D.
func (part *Partition) globalExchange(proc *sim.Proc) {
	db := part.db
	db.exchange.Acquire(proc, 1)
	proc.Sleep(db.cfg.ExchangeSlot)
	db.exchange.Release(1)
	proc.Sleep(db.cfg.ExchangeLat)
}

// Perf aggregates the database process's perf counters (executors +
// dispatcher) over the given window.
func (db *DB) Perf(windowPS int64) metrics.PerfSample {
	var total metrics.PerfSample
	for _, part := range db.partitions {
		total.Add(part.th.Perf())
	}
	total.Add(db.dispatchTh.Perf())
	total.WindowPS = windowPS
	return total
}

// ResetPerf zeroes all process counters.
func (db *DB) ResetPerf() {
	for _, part := range db.partitions {
		part.th.ResetPerf()
	}
	db.dispatchTh.ResetPerf()
}

// Executed returns the total transactions completed.
func (db *DB) Executed() int64 {
	var n int64
	for _, part := range db.partitions {
		n += part.executed
	}
	return n
}

// Close frees the partition arenas (executors must be stopped first).
func (db *DB) Close() {
	for _, part := range db.partitions {
		db.host.Mem.Free(part.arena)
	}
}
