// Package chaos is a deterministic fault-campaign engine for the full
// ThymesisFlow datapath. A campaign drives a real core.Cluster — capi
// transactions through rmmu translation, llc framing/replay, and phy
// channels with scripted fault schedules — and asserts the paper's central
// reliability claim after recovery: the LLC keeps the datapath lossless
// under link errors (credit backpressure plus frame replay, PAPER.md §4/§6).
//
// Every scenario is seeded and reproducible: the campaign seed derives a
// per-scenario seed, which seeds the phy fault PRNGs and the cacheline
// content patterns. Reports carry only virtual-time measurements and
// deterministic counters, so one seed yields a byte-identical report
// whether scenarios run serially or across a worker pool.
package chaos

import (
	"fmt"
	"hash/fnv"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/core"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/llc"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/timeseries"
)

// DetachMode selects the detach-under-load behaviour of a scenario.
type DetachMode int

// Detach modes.
const (
	DetachNone  DetachMode = iota
	DetachDrain            // graceful: reject new requests, drain outstanding
	DetachForce            // immediate: fault outstanding, tear down
)

// Scenario scripts one fault campaign. The zero value of optional fields
// selects defaults (4 workers, 48 ops each, 1 MiB attachment, default LLC
// config, 50 ms horizon).
type Scenario struct {
	Name        string
	Description string

	Workers      int
	OpsPerWorker int
	AttachBytes  int64
	Horizon      sim.Time

	// LLC overrides the link protocol parameters (nil = defaults).
	LLC *llc.Config
	// Faults, when non-nil, is installed on both link directions with
	// per-direction derived seeds; Base.Seed is overwritten from the
	// scenario seed so campaigns reproduce from the campaign seed alone.
	Faults *phy.FaultSchedule

	// Detach schedules a detach-under-load at DetachAt virtual time.
	Detach   DetachMode
	DetachAt sim.Time

	// Expectations, asserted as invariants.
	ExpectDrops     bool // fault schedule must actually drop frames
	ExpectCRCErrors bool // fault schedule must actually corrupt frames
	ExpectReplays   bool // recovery must have exercised the replay path
	ExpectStalls    bool // credit window must have been exhausted
	ExpectLinkDown  bool // scenario must end in the link-down state
	ExpectDetached  bool // scenario must end detached
}

func (s *Scenario) defaults() {
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.OpsPerWorker <= 0 {
		s.OpsPerWorker = 48
	}
	if s.AttachBytes <= 0 {
		s.AttachBytes = 1 << 20
	}
	if s.Horizon <= 0 {
		s.Horizon = 50 * sim.Millisecond
	}
}

// splitmix64 is the seed-derivation mixer (same stream capi.FillPattern
// uses): tiny, well-distributed, and dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// deriveSeed maps (campaign seed, scenario name) to the scenario seed, so
// scenario results do not depend on catalogue order or worker scheduling.
func deriveSeed(campaign int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name)) //nolint:errcheck
	return int64(splitmix64(uint64(campaign) ^ h.Sum64()))
}

// patternSeed derives the content pattern of one (worker, op) cacheline.
func patternSeed(scenarioSeed int64, worker, op int) uint64 {
	return splitmix64(uint64(scenarioSeed) ^ (uint64(worker)<<32 | uint64(op) + 1))
}

// ackedLine records one store acknowledged through the datapath.
type ackedLine struct {
	line int
	pat  uint64
}

// Run executes one scenario under the campaign seed and returns its
// report, on a cluster partitioned into the given number of simulation
// shards (one kernel per host, conservative lookahead windows). Reports
// carry only virtual-time measurements, so the shard count never changes a
// simulation result: shards=1 executes the exact sequential path, and the
// sharded runtime's deterministic merge reproduces it event for event. The
// one shard-count-dependent section is ShardHealth, which describes the
// runtime itself (and is still deterministic per seed at a fixed shard
// count).
//
// fopts, when non-nil, enables the fabric flight recorder on the scenario's
// cluster, and Run also returns the frozen telemetry snapshot the run
// produced, sampled on the virtual tick grid for as long as the run has
// live events (nil returns an empty snapshot). Recording adds no simulation
// events, so the report is identical to the unrecorded run's; series hold
// only virtual-time measurements, so the snapshot — minus the shard.*
// runtime series, which describe wall-clock barrier stalls — is
// byte-identical per seed at any shard count, exactly like the report.
func Run(s Scenario, campaignSeed int64, shards int, fopts *core.FlightOptions) (ScenarioReport, timeseries.Snapshot) {
	s.defaults()
	seed := deriveSeed(campaignSeed, s.Name)
	rep := ScenarioReport{
		Name:        s.Name,
		Description: s.Description,
		Seed:        seed,
		Ops:         s.Workers * s.OpsPerWorker,
	}
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}

	cfg := llc.DefaultConfig()
	if s.LLC != nil {
		cfg = *s.LLC
	}
	if int64(rep.Ops)*capi.Cacheline > s.AttachBytes {
		fail("scenario writes %d lines into %d bytes", rep.Ops, s.AttachBytes)
		rep.Passed = false
		return rep, timeseries.Snapshot{}
	}

	c := core.NewClusterShards(shards)
	sink := c.EnableLatency()
	var rec *timeseries.Recorder
	if fopts != nil {
		rec = c.EnableFlightRecorder(*fopts)
	}
	for _, name := range []string{"compute", "donor"} {
		hc := core.DefaultHostConfig(name)
		hc.DRAMPerSocket = 4 << 30
		hc.SectionSize = 1 << 20
		hc.RMMUSections = 64
		if _, err := c.AddHost(hc); err != nil {
			fail("add host: %v", err)
			return rep, timeseries.Snapshot{}
		}
	}
	att, err := c.Attach(core.AttachSpec{
		ComputeHost: "compute", DonorHost: "donor",
		Bytes: s.AttachBytes, Backing: true, LLC: &cfg,
	})
	if err != nil {
		fail("attach: %v", err)
		return rep, timeseries.Snapshot{}
	}
	if s.Faults != nil {
		sched := *s.Faults
		sched.Base.Seed = seed
		c.ApplyFaultSchedule(att, sched)
	}

	// Workload: each worker stamps its own disjoint cachelines with
	// seed-derived patterns, one synchronous store at a time, recording
	// acknowledgement latency in virtual time.
	acked := make([][]ackedLine, s.Workers)
	errs := make([]error, s.Workers)
	var totalLat, maxLat, workEnd sim.Time
	for wi := 0; wi < s.Workers; wi++ {
		wi := wi
		c.K.Go(fmt.Sprintf("chaos-w%d", wi), func(p *sim.Proc) {
			buf := make([]byte, capi.Cacheline)
			for op := 0; op < s.OpsPerWorker; op++ {
				line := wi*s.OpsPerWorker + op
				pat := patternSeed(seed, wi, op)
				capi.FillPattern(buf, pat)
				t0 := c.K.Now()
				err := c.Store(p, att, int64(line)*capi.Cacheline, buf)
				if err != nil {
					errs[wi] = err
					break
				}
				lat := c.K.Now() - t0
				totalLat += lat
				if lat > maxLat {
					maxLat = lat
				}
				acked[wi] = append(acked[wi], ackedLine{line: line, pat: pat})
			}
			if now := c.K.Now(); now > workEnd {
				workEnd = now
			}
		})
	}
	if s.Detach != DetachNone {
		at := s.DetachAt
		if at <= 0 {
			at = 30 * sim.Microsecond
		}
		c.K.Schedule(at, func() {
			if err := c.BeginDetach(att.ID, s.Detach == DetachForce, nil); err != nil {
				fail("begin detach: %v", err)
			}
		})
	}
	c.RunUntil(s.Horizon)

	// Merge worker results in worker order (deterministic independent of
	// simulated interleaving: the kernel is single-threaded and seeded).
	var lines []ackedLine
	for wi := 0; wi < s.Workers; wi++ {
		rep.OpsOK += len(acked[wi])
		lines = append(lines, acked[wi]...)
		if errs[wi] != nil {
			rep.OpsFailed++
			if rep.FirstError == "" {
				rep.FirstError = errs[wi].Error()
			}
		}
	}
	rep.WorkNS = int64(workEnd / sim.Nanosecond)
	if rep.OpsOK > 0 {
		rep.AvgLatencyNS = int64(totalLat/sim.Time(rep.OpsOK)) / int64(sim.Nanosecond)
		rep.MaxLatencyNS = int64(maxLat / sim.Nanosecond)
		if workEnd > 0 {
			bytes := float64(rep.OpsOK) * capi.Cacheline
			secs := float64(workEnd) / float64(sim.Second)
			rep.ThroughputMiBs = bytes / (1 << 20) / secs
		}
	}

	// Invariant 1 — losslessness at the donor: every acknowledged store
	// must be present, bit-exact, in donor memory. This holds in every
	// scenario, including forced detach and link-down (an acknowledgement
	// means the write completed at the donor before the response returned).
	for _, l := range lines {
		off := int64(l.line) * capi.Cacheline
		got := att.Region.Data[off : off+capi.Cacheline]
		if !capi.PatternMatches(got, l.pat) {
			fail("donor content mismatch at line %d", l.line)
		}
	}
	rep.LinesVerified = len(lines)

	// Invariant 2 — end-to-end read-back through the recovered datapath
	// (only when the attachment is still active to serve it).
	if att.State() == core.StateActive {
		verified := 0
		c.K.Go("chaos-verify", func(p *sim.Proc) {
			for _, l := range lines {
				data, err := c.Load(p, att, int64(l.line)*capi.Cacheline, capi.Cacheline)
				if err != nil {
					fail("read-back of line %d: %v", l.line, err)
					return
				}
				if !capi.PatternMatches(data, l.pat) {
					fail("read-back mismatch at line %d", l.line)
					return
				}
				verified++
			}
		})
		c.RunUntil(2 * s.Horizon)
		if verified != len(lines) {
			fail("read-back verified %d/%d lines", verified, len(lines))
		}
		rep.LinesVerified += verified
	}

	// Aggregate protocol and wire counters over both directions.
	effCredits := cfg.Credits
	downSomewhere := false
	for _, p := range att.Ports() {
		for _, port := range []*llc.Port{p, p.Peer()} {
			if port == nil {
				continue
			}
			st := port.Stats()
			rep.LLC.TxFrames += st.TxFrames
			rep.LLC.TxControl += st.TxControl
			rep.LLC.TxReplayed += st.TxReplayed
			rep.LLC.TxTransactions += st.TxTransactions
			rep.LLC.RxTransactions += st.RxTransactions
			rep.LLC.RxCRCErrors += st.RxCRCErrors
			rep.LLC.RxGaps += st.RxGaps
			rep.LLC.RxDuplicates += st.RxDuplicates
			rep.LLC.CreditStalls += st.CreditStalls
			rep.LLC.CreditProbes += st.CreditProbes
			rep.LLC.ReplayExhausted += st.ReplayExhausted
			rep.LLC.ReplayOverflows += st.ReplayOverflows
			rep.LLC.TxAbandoned += st.TxAbandoned
			rep.LLC.LinkDownEvents += st.LinkDownEvents
			if port.Down() {
				downSomewhere = true
			}
			sent, dropped, corrupted := port.Channel().Stats()
			rep.Phy.Sent += sent
			rep.Phy.Dropped += dropped
			rep.Phy.Corrupted += corrupted
		}
	}
	rep.FinalState = att.State().String()

	// End-to-end latency snapshot from the attribution pipeline. Virtual
	// time only, so the numbers reproduce from the seed.
	e2e := sink.EndToEndSummary()
	stall := sink.StageSummaryFor(latency.StageCreditStall)
	rep.Latency = LatencyStats{
		Count:             e2e.Count,
		MeanNS:            e2e.Mean,
		P50NS:             e2e.P50,
		P99NS:             e2e.P99,
		P999NS:            e2e.P999,
		MaxNS:             e2e.Max,
		CreditStallMeanNS: stall.Mean,
	}

	// Invariant 3 — replay accounting: injected losses must be repaired by
	// the replay machinery, and every CRC-corrupted delivery must have been
	// detected (exact count match, unless a down port discarded deliveries).
	if rep.LLC.LinkDownEvents == 0 {
		if rep.Phy.Dropped > 0 && rep.LLC.TxReplayed == 0 {
			fail("%d frames dropped but nothing was replayed", rep.Phy.Dropped)
		}
		if rep.LLC.RxCRCErrors != rep.Phy.Corrupted {
			fail("CRC accounting: %d detected vs %d injected", rep.LLC.RxCRCErrors, rep.Phy.Corrupted)
		}
		// Invariant 4 — transaction conservation on the live link: every
		// transaction accepted for transmission was delivered exactly once.
		if rep.LLC.TxTransactions != rep.LLC.RxTransactions {
			fail("transaction conservation: %d sent vs %d delivered",
				rep.LLC.TxTransactions, rep.LLC.RxTransactions)
		}
		// Invariant 5 — credits conserved after quiescence.
		for _, p := range att.Ports() {
			for _, port := range []*llc.Port{p, p.Peer()} {
				if port != nil && port.Credits() != effCredits {
					fail("port %s holds %d credits after quiescence, want %d",
						port.Name(), port.Credits(), effCredits)
				}
			}
		}
	}

	// Expectations.
	if s.ExpectDrops && rep.Phy.Dropped == 0 {
		fail("expected dropped frames, saw none")
	}
	if s.ExpectCRCErrors && rep.LLC.RxCRCErrors == 0 {
		fail("expected CRC errors, saw none")
	}
	if s.ExpectReplays && rep.LLC.TxReplayed == 0 {
		fail("expected replays, saw none")
	}
	if s.ExpectStalls && rep.LLC.CreditStalls == 0 {
		fail("expected credit stalls, saw none")
	}
	if s.ExpectLinkDown {
		if rep.LLC.LinkDownEvents == 0 || !downSomewhere {
			fail("expected link-down escalation, link stayed up")
		}
		if rep.FinalState != core.StateLinkDown.String() {
			fail("final state %q, want link-down", rep.FinalState)
		}
	} else if rep.LLC.LinkDownEvents != 0 {
		fail("unexpected link-down escalation (%d events)", rep.LLC.LinkDownEvents)
	}
	if s.ExpectDetached && rep.FinalState != core.StateDetached.String() {
		fail("final state %q, want detached", rep.FinalState)
	}
	if s.Faults == nil && s.Detach == DetachNone {
		// Clean baseline: the protocol must be silent.
		if rep.Phy.Dropped != 0 || rep.LLC.RxCRCErrors != 0 || rep.LLC.TxReplayed != 0 {
			fail("clean run exercised fault paths: %+v", rep.LLC)
		}
		if rep.OpsFailed != 0 {
			fail("clean run failed %d ops: %s", rep.OpsFailed, rep.FirstError)
		}
	}

	if h, ok := c.ShardHealth(); ok {
		rep.ShardHealth = &h
	}

	rep.Passed = len(rep.Failures) == 0
	var snap timeseries.Snapshot
	if rec != nil {
		snap = rec.Snapshot()
	}
	return rep, snap
}

// Campaign runs the datapath scenarios dp, each on a cluster of the given
// number of simulation shards, and the control-plane scenarios cp, all
// under the campaign seed, and assembles the report. cells runs fn(0..n-1),
// each index exactly once, in any order and on any goroutines; nil runs
// them in order on the caller. Every scenario owns its kernel or world,
// derives its seeds from (campaign seed, name) and lands at its own index,
// so the report is byte-identical for any cell loop.
func Campaign(dp []Scenario, cp []CPScenario, seed int64, shards int, cells func(n int, fn func(i int))) Report {
	rep := Report{
		Seed:         seed,
		Passed:       true,
		Scenarios:    make([]ScenarioReport, len(dp)),
		ControlPlane: make([]CPScenarioReport, len(cp)),
	}
	if cells == nil {
		cells = func(n int, fn func(i int)) {
			for i := 0; i < n; i++ {
				fn(i)
			}
		}
	}
	cells(len(dp)+len(cp), func(i int) {
		if i < len(dp) {
			rep.Scenarios[i], _ = Run(dp[i], seed, shards, nil)
		} else {
			rep.ControlPlane[i-len(dp)], _ = RunCP(cp[i-len(dp)], seed, nil)
		}
	})
	for _, sr := range rep.Scenarios {
		rep.Passed = rep.Passed && sr.Passed
	}
	for _, sr := range rep.ControlPlane {
		rep.Passed = rep.Passed && sr.Passed
	}
	return rep
}
