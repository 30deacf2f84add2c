package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/core"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/llc"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// sizes scales every workload's input.
type sizes struct {
	rackHosts, rackAttachments, rackFlowsPerAtt, rackOpsPerFlow, rackShards int
	satProcs, satOpsPerProc, satLinesPerProc                                int
	churnMinutes                                                            int
	churnRate                                                               float64
}

// fullSizes are the benchmark's sizes. The rack keeps the -full topology
// (32 hosts, 160 single-channel attachments, 1280 flows) with fewer ops per
// flow, so one iteration takes about a second and a run takes a median of
// many.
var fullSizes = sizes{
	rackHosts: 32, rackAttachments: 160, rackFlowsPerAtt: 8, rackOpsPerFlow: 96, rackShards: 2,
	satProcs: 256, satOpsPerProc: 384, satLinesPerProc: 128,
	churnMinutes: 2, churnRate: 800,
}

// smokeSizes are tiny inputs for the smoke test.
var smokeSizes = sizes{
	rackHosts: 4, rackAttachments: 8, rackFlowsPerAtt: 2, rackOpsPerFlow: 8, rackShards: 2,
	satProcs: 16, satOpsPerProc: 16, satLinesPerProc: 8,
	churnMinutes: 1, churnRate: 120,
}

var stageNames = func() []string {
	var out []string
	for _, s := range latency.Stages() {
		out = append(out, s.String())
	}
	return out
}()

// flowResult is one closed-loop process's tally. Each process writes only
// its own slot, so processes on different shard kernels share no word.
type flowResult struct {
	ok, failed int64
	bytes      int64
	loadRTT    []sim.Time // simulated round trip of every Load
	rttSum     sim.Time   // summed round trip of every Load and Store
}

// datapathRun is the state both datapath workloads check the same way.
type datapathRun struct {
	c    *core.Cluster
	atts []*core.Attachment
	res  []flowResult
	end  sim.Time
}

func (d *datapathRun) outcome() *outcome {
	out := newOutcome()
	for _, r := range d.res {
		out.ops += r.ok + r.failed
		out.failed += r.failed
	}
	return out
}

// check verifies transaction conservation and latency reconciliation, and
// fills the simulated results, per-layer counters and digest.
func (d *datapathRun) check(out *outcome) error {
	var loads []float64
	var okOps, bytes int64
	var rttSum sim.Time
	for _, r := range d.res {
		for _, t := range r.loadRTT {
			loads = append(loads, float64(t)/float64(sim.Nanosecond))
		}
		okOps += r.ok
		bytes += r.bytes
		rttSum += r.rttSum
	}
	l := out.layer
	l["sim.load_rtt_p50_ns"] = quantile(loads, 0.5)
	l["sim.load_rtt_p99_ns"] = quantile(loads, 0.99)
	l["sim.goodput_gibps"] = ratio(float64(bytes), d.end.Seconds()) / (1 << 30)
	var txTxns, rxTxns int64
	for _, att := range d.atts {
		for _, p := range att.Ports() {
			for _, q := range []*llc.Port{p, p.Peer()} {
				if q == nil {
					continue
				}
				sent, dropped, corrupted := q.Channel().Stats()
				l["phy.sent"] += float64(sent)
				l["phy.dropped"] += float64(dropped)
				l["phy.corrupted"] += float64(corrupted)
				s := q.Stats()
				l["llc.frames"] += float64(s.TxFrames)
				l["llc.control_frames"] += float64(s.TxControl)
				l["llc.replayed"] += float64(s.TxReplayed)
				l["llc.credit_stalls"] += float64(s.CreditStalls)
				l["llc.credit_probes"] += float64(s.CreditProbes)
				l["llc.crc_errors"] += float64(s.RxCRCErrors)
				txTxns += s.TxTransactions
				rxTxns += s.RxTransactions
			}
		}
	}
	l["llc.replay_ratio"] = ratio(l["llc.replayed"], l["llc.frames"])
	l["llc.txns_per_frame"] = ratio(float64(txTxns), l["llc.frames"])
	for _, h := range d.c.Hosts() {
		loadsN, stores := h.Compute.Stats()
		l["capi.transactions"] += float64(loadsN + stores)
	}
	for _, k := range d.c.Kernels() {
		l["sim.events"] += float64(k.Executed())
	}
	l["sim.events_per_op"] = ratio(l["sim.events"], float64(out.ops))
	if h, ok := d.c.ShardHealth(); ok {
		var busiest uint64
		var stall int64
		for _, s := range h.Shards {
			if s.Events > busiest {
				busiest = s.Events
			}
			stall += s.StallPS
		}
		l["shard.windows"] = float64(h.Windows)
		l["shard.events_per_window"] = h.EventsPerWindow
		l["shard.imbalance"] = h.Imbalance
		l["shard.balance_bound"] = ratio(l["sim.events"], float64(busiest))
		l["shard.barrier_stall_ns"] = float64(stall) / 1e3
		l["shard.flushed"] = float64(h.Flushed)
		l["shard.max_flush_depth"] = float64(h.MaxFlushDepth)
	}

	var problems []string
	if out.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed ops", out.failed))
	}
	if txTxns != rxTxns {
		problems = append(problems, fmt.Sprintf("transactions not conserved: %d sent, %d delivered", txTxns, rxTxns))
	}
	if sink := d.c.LatencySink(); sink != nil {
		b := sink.Snapshot()
		for _, st := range b.Stages {
			l["stage."+st.Stage+".mean_ns"] = st.MeanNS
			l["stage."+st.Stage+".p99_ns"] = st.P99NS
		}
		measured := ratio(float64(rttSum), float64(okOps)) / float64(sim.Nanosecond)
		errPct := 100 * ratio(math.Abs(b.StageSumMeanNS-measured), measured)
		l["stage.reconcile_err_pct"] = errPct
		l["stage.skewed"] = float64(b.Skewed)
		if errPct > 1 || b.Skewed != 0 || b.Count != okOps {
			problems = append(problems, fmt.Sprintf(
				"latency stages do not reconcile: stage sum %.1f ns vs measured %.1f ns (%.3f%%), %d skewed, %d records for %d ops",
				b.StageSumMeanNS, measured, errPct, b.Skewed, b.Count, okOps))
		}
	}

	h := sha256.New()
	d.c.StateDigest(h)
	fmt.Fprintf(h, "end=%d ops=%d failed=%d bytes=%d rtt=%d p50=%g p99=%g\n",
		d.end, out.ops, out.failed, bytes, rttSum, l["sim.load_rtt_p50_ns"], l["sim.load_rtt_p99_ns"])
	out.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	if len(problems) > 0 {
		return fmt.Errorf("%v", problems)
	}
	return nil
}

// reportDatapath prints the simulated results and host throughput.
func reportDatapath(w io.Writer, ph *phase) {
	fmt.Fprintf(w, "datapath_ops_per_s %s\n", timing(ph.opsPerS, "ops/s"))
	fmt.Fprintf(w, "sim_load_rtt       p50 %.0f ns, p99 %.0f ns (simulated)\n",
		ph.first.layer["sim.load_rtt_p50_ns"], ph.first.layer["sim.load_rtt_p99_ns"])
	fmt.Fprintf(w, "sim_goodput_gibps  %.4f GiB/s (simulated)\n", ph.first.layer["sim.goodput_gibps"])
}

// --- rack ---

type flowOp struct {
	think sim.Time
	load  bool
	off   int64
}

type rackFlow struct {
	att  *core.Attachment
	host *core.Host
	ops  []flowOp
}

type rackInst struct {
	datapathRun
	flows []rackFlow
	log   *spanLog
}

// setupRack builds the rack: hosts, attachments across seeded host pairs,
// and every flow's seeded op schedule.
func setupRack(seed int64, sz sizes, log *spanLog) (instance, error) {
	in := &rackInst{log: log}
	c := core.NewClusterShards(sz.rackShards)
	if log != nil {
		c.EnableLatency()
	}
	in.c = c
	hosts := make([]*core.Host, sz.rackHosts)
	for i := range hosts {
		hc := core.DefaultHostConfig(fmt.Sprintf("rack%02d", i))
		hc.Sockets = 1
		hc.CoresPerSocket = 4
		hc.DRAMPerSocket = 1 << 30
		hc.SectionSize = 1 << 20
		hc.RMMUSections = 256
		var err error
		if hosts[i], err = c.AddHost(hc); err != nil {
			return nil, err
		}
	}
	const attBytes = 1 << 20
	rng := rand.New(rand.NewSource(seed))
	for a := 0; a < sz.rackAttachments; a++ {
		ci := rng.Intn(sz.rackHosts)
		di := (ci + 1 + rng.Intn(sz.rackHosts-1)) % sz.rackHosts
		var att *core.Attachment
		var err error
		log.time("core.attach", func() {
			att, err = c.Attach(core.AttachSpec{
				ComputeHost: hosts[ci].Name, DonorHost: hosts[di].Name,
				Bytes: attBytes, Channels: 1,
			})
		})
		if err != nil {
			return nil, err
		}
		in.atts = append(in.atts, att)
		for f := 0; f < sz.rackFlowsPerAtt; f++ {
			fl := rackFlow{att: att, host: hosts[ci], ops: make([]flowOp, sz.rackOpsPerFlow)}
			for o := range fl.ops {
				fl.ops[o] = flowOp{
					think: sim.Time(rng.Intn(4001)) * sim.Nanosecond,
					load:  rng.Intn(2) == 0,
					off:   int64(rng.Intn(attBytes/capi.Cacheline)) * capi.Cacheline,
				}
			}
			in.flows = append(in.flows, fl)
		}
	}
	in.res = make([]flowResult, len(in.flows))
	return in, nil
}

func (in *rackInst) run() (*outcome, error) {
	for i := range in.flows {
		f, r := &in.flows[i], &in.res[i]
		buf := []byte{byte(i), byte(i >> 8), 1, 2, 3, 4, 5, 6}
		f.host.K.Go(fmt.Sprintf("flow%d", i), func(p *sim.Proc) {
			for _, op := range f.ops {
				p.Sleep(op.think)
				t0 := p.Now()
				var err error
				n := int64(len(buf))
				if op.load {
					_, err = in.c.Load(p, f.att, op.off, 64)
					n = 64
				} else {
					err = in.c.Store(p, f.att, op.off, buf)
				}
				if err != nil {
					r.failed++
					return
				}
				rtt := p.Now() - t0
				if op.load {
					r.loadRTT = append(r.loadRTT, rtt)
				}
				r.rttSum += rtt
				r.ok++
				r.bytes += n
			}
		})
	}
	in.log.time("core.run", func() { in.end = in.c.Run() })
	return in.outcome(), nil
}

// --- link-saturate ---

type satOp struct {
	store   bool
	line    int64 // line index within the process's own lines
	pattern uint64
}

type satInst struct {
	datapathRun
	tb    *core.Testbed
	procs [][]satOp
	lines int64    // lines each process owns
	last  []uint64 // per line: pattern of the last acked store, 0 if none
	seed  int64
	log   *spanLog
}

// setupSaturate builds the three-node testbed with one bonded, backed
// 2-channel attachment under A1's frame loss, and every process's schedule:
// three stores per load, each process on its own lines.
func setupSaturate(seed int64, sz sizes, log *spanLog) (instance, error) {
	lines := int64(sz.satLinesPerProc)
	tb, err := core.NewTestbedSpec(core.TestbedSpec{
		Config:      core.ConfigBondingDisaggregated,
		RemoteBytes: int64(sz.satProcs) * lines * capi.Cacheline,
		HostMutate: func(hc *core.HostConfig) {
			hc.SectionSize = 1 << 20
			hc.RMMUSections = 256
		},
		AttachMutate: func(as *core.AttachSpec) { as.Backing = true },
	})
	if err != nil {
		return nil, err
	}
	c := tb.Cluster
	if log != nil {
		c.EnableLatency()
	}
	c.ApplyFaultSchedule(tb.Att, phy.FaultSchedule{Base: phy.FaultConfig{DropProb: 1e-4, CorruptProb: 1e-4, Seed: seed}})
	in := &satInst{tb: tb, lines: lines, seed: seed, log: log}
	in.c, in.atts = c, []*core.Attachment{tb.Att}
	rng := rand.New(rand.NewSource(seed))
	in.procs = make([][]satOp, sz.satProcs)
	for p := range in.procs {
		ops := make([]satOp, sz.satOpsPerProc)
		for o := range ops {
			ops[o] = satOp{store: rng.Intn(4) != 0, line: rng.Int63n(lines), pattern: rng.Uint64() | 1}
		}
		in.procs[p] = ops
	}
	in.res = make([]flowResult, len(in.procs))
	in.last = make([]uint64, int64(len(in.procs))*lines)
	return in, nil
}

func (in *satInst) run() (*outcome, error) {
	k := in.tb.Server.K
	for i := range in.procs {
		ops, r := in.procs[i], &in.res[i]
		base := int64(i) * in.lines
		k.Go(fmt.Sprintf("sat%d", i), func(p *sim.Proc) {
			buf := make([]byte, capi.Cacheline)
			for _, op := range ops {
				line := base + op.line
				t0 := p.Now()
				var err error
				if op.store {
					capi.FillPattern(buf, op.pattern)
					err = in.c.Store(p, in.tb.Att, line*capi.Cacheline, buf)
				} else {
					_, err = in.c.Load(p, in.tb.Att, line*capi.Cacheline, capi.Cacheline)
				}
				if err != nil {
					r.failed++
					return
				}
				rtt := p.Now() - t0
				if op.store {
					in.last[line] = op.pattern
				} else {
					r.loadRTT = append(r.loadRTT, rtt)
				}
				r.rttSum += rtt
				r.ok++
				r.bytes += capi.Cacheline
			}
		})
	}
	in.log.time("core.run", func() { in.end = in.c.Run() })
	return in.outcome(), nil
}

// check adds the read-back check to the shared one: a seeded sample of
// stored lines must read back byte-exact. The read-back runs after the
// counters are taken, so it does not enter the digest.
func (in *satInst) check(out *outcome) error {
	errShared := in.datapathRun.check(out)
	var stored []int64
	for line, pat := range in.last {
		if pat != 0 {
			stored = append(stored, int64(line))
		}
	}
	rng := rand.New(rand.NewSource(in.seed ^ 0x5eed))
	rng.Shuffle(len(stored), func(i, j int) { stored[i], stored[j] = stored[j], stored[i] })
	if len(stored) > 256 {
		stored = stored[:256]
	}
	sort.Slice(stored, func(i, j int) bool { return stored[i] < stored[j] })
	var mismatched []int64
	var readErr error
	in.tb.Server.K.Go("read-back", func(p *sim.Proc) {
		for _, line := range stored {
			data, err := in.c.Load(p, in.tb.Att, line*capi.Cacheline, capi.Cacheline)
			if err != nil {
				readErr = err
				return
			}
			if !capi.PatternMatches(data, in.last[line]) {
				mismatched = append(mismatched, line)
			}
		}
	})
	in.c.Run()
	switch {
	case errShared != nil:
		return errShared
	case readErr != nil:
		return fmt.Errorf("read-back: %w", readErr)
	case len(mismatched) > 0:
		return fmt.Errorf("read-back: %d of %d sampled lines differ from the last store (first: line %d)",
			len(mismatched), len(stored), mismatched[0])
	case len(stored) == 0:
		return fmt.Errorf("read-back: no line was stored")
	}
	return nil
}
