package bench

import (
	"fmt"
	"io"
	"sync"

	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/core"
	"thymesisflow/internal/cpworld"
	"thymesisflow/internal/dctrace"
	"thymesisflow/internal/instrument"
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/trace"
)

// Replay: datacenter-churn traffic replay against the REAL control plane.
// A seeded dctrace churn trace (attach/depart arrivals under diurnal+burst
// envelopes, memory-pressure walks, agent flap storms, autoscaler cadence)
// is driven event by event through the actual saga engine — journaled
// write-ahead sagas over a seeded FaultyTransport, the reconciler, and the
// autoscaler — at thousands of sagas per simulated minute. Everything is a
// pure function of the seed, so the report is byte-identical per seed; the
// crash-point property test additionally kills and recovers the
// orchestrator mid-replay and asserts final-state equality with an
// uncrashed run.

const replayToken = "replay-secret"

// The replay's fixed world and cadence.
const (
	replayHosts             = 8  // small hosts, cabled as a full mesh
	replayTransceiversPerEP = 12 // per endpoint
	// replayLocalBytes is each host's synthetic local DRAM for the
	// pressure model.
	replayLocalBytes int64 = 64 << 20
	// replayReconcileEverySec is the periodic reconciler cadence, in
	// simulated seconds.
	replayReconcileEverySec float64 = 20
)

// ReplayConfig parameterizes one replay run. Zero values take defaults().
type ReplayConfig struct {
	Seed          int64
	Minutes       int     // simulated trace duration
	RatePerMinute float64 // base attach arrival rate
	// MaxInflightSagas is forwarded to Service.SetMaxInflightSagas — the
	// admission knob; the single-threaded driver never trips it, but the
	// concurrent driver (Workers > 1) races its issuers against it and
	// surfaces the shed load as SagasRejected.
	MaxInflightSagas int
	// Workers is the number of saga-issuing goroutines. Attach/depart
	// events are routed by attachment sequence (so each attachment's
	// lifecycle stays ordered on one issuer) while flap storms, autoscaler
	// evaluations, and periodic reconciles run at pool barriers. With 1
	// (the default) every saga call happens in trace order, so the report
	// is byte-identical per seed; with N > 1 totals depend on scheduling,
	// which is the point — it is the load harness that makes admission
	// control trip.
	Workers int

	// NoFaults zeroes the transport fault probabilities and NoAutoscale
	// disables the autoscaler — the crash-equality tests use both so a
	// crashed run's recovery traffic cannot skew the shared fault RNG.
	NoFaults    bool
	NoAutoscale bool

	// crashPoints arms the journal to fail after the given append counts,
	// in order, killing the control plane mid-saga; the driver recovers a
	// fresh incarnation and resumes the trace (tests only).
	crashPoints []int
}

func (cfg *ReplayConfig) defaults() {
	if cfg.Minutes <= 0 {
		cfg.Minutes = 2
	}
	if cfg.RatePerMinute <= 0 {
		cfg.RatePerMinute = 800
	}
	if cfg.MaxInflightSagas <= 0 {
		cfg.MaxInflightSagas = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
}

// ReplayReconciler summarizes reconciler activity during the replay.
type ReplayReconciler struct {
	// PeriodicSweeps counts cadence-driven single sweeps.
	PeriodicSweeps int `json:"periodic_sweeps"`
	// StormReconciles counts flap storms; after each the driver sweeps
	// until clean and records the convergence passes (the "convergence
	// time after a flap storm" number).
	StormReconciles  int  `json:"storm_reconciles"`
	StormPassesTotal int  `json:"storm_passes_total"`
	StormPassesMax   int  `json:"storm_passes_max"`
	FinalPasses      int  `json:"final_passes"`
	FinalClean       bool `json:"final_clean"`
}

// ReplayJournal is the write-ahead journal growth over the run.
type ReplayJournal struct {
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// ReplayReport is the deterministic (per seed) result of a replay run.
type ReplayReport struct {
	Experiment       string  `json:"experiment"`
	Seed             int64   `json:"seed"`
	Minutes          int     `json:"minutes"`
	RatePerMinute    float64 `json:"rate_per_minute"`
	Hosts            int     `json:"hosts"`
	FaultsEnabled    bool    `json:"faults_enabled"`
	AutoscaleEnabled bool    `json:"autoscale_enabled"`
	MaxInflightSagas int     `json:"max_inflight_sagas"`
	Workers          int     `json:"workers"`

	Trace dctrace.ChurnMix `json:"trace"`

	AttachesOK     int `json:"attaches_ok"`
	AttachErrors   int `json:"attach_errors"`
	DetachesOK     int `json:"detaches_ok"`
	DepartsSkipped int `json:"departs_skipped"`
	DetachErrors   int `json:"detach_errors"`
	ScaleAttaches  int `json:"scale_attaches"`
	ScaleDetaches  int `json:"scale_detaches"`
	ScaleErrors    int `json:"scale_errors"`
	Crashes        int `json:"crashes"`

	SagasCommitted    int     `json:"sagas_committed"`
	SagasPerSimMinute float64 `json:"sagas_per_sim_minute"`
	SagasPerSimSecond float64 `json:"sagas_per_sim_second"`

	// Profiles are the attach/detach stage profiles from the saga event
	// log (virtual StepClock nanoseconds — deterministic, not wall time).
	Profiles []trace.OpProfile `json:"profiles"`

	Reconciler ReplayReconciler            `json:"reconciler"`
	Journal    ReplayJournal               `json:"journal"`
	Counters   controlplane.SagaCounters   `json:"counters"`
	Transport  controlplane.TransportStats `json:"transport"`

	EventsRecorded uint64 `json:"events_recorded"`
	EventsDropped  uint64 `json:"events_dropped"`

	// FinalState is the converged end-of-trace state — the section the
	// crash-point property test asserts byte-equal between a crashed and an
	// uncrashed run.
	FinalState cpworld.FinalState `json:"final_state"`
	// Invariants lists end-state invariant violations (empty on a healthy
	// run; the crash tests assert it stays empty).
	Invariants []string `json:"invariants,omitempty"`
}

// newReplayWorld builds the replay's control-plane world: replayHosts small
// hosts cabled as a full mesh and the seeded lossy transport.
func newReplayWorld(cfg ReplayConfig) (*cpworld.World, error) {
	hosts := make([]string, replayHosts)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("replay%02d", i)
	}
	faults := controlplane.TransportFaults{Seed: cfg.Seed}
	if !cfg.NoFaults {
		faults.DropProb = 0.02
		faults.DupProb = 0.04
		faults.AmbiguousProb = 0.04
	}
	// Size the saga event log for the expected traffic (~56 events per
	// saga), clamped to [16Ki, 512Ki]; overflow drops deterministically
	// and is reported.
	expected := int(float64(cfg.Minutes)*cfg.RatePerMinute*2.5) * 56
	capEvents := 1 << 14
	for capEvents < expected && capEvents < 1<<19 {
		capEvents <<= 1
	}
	w, err := cpworld.New(cpworld.Config{
		Hosts: hosts,
		Host: func(n string) core.HostConfig {
			hc := core.DefaultHostConfig(n)
			hc.Sockets = 1
			hc.CoresPerSocket = 2
			hc.DRAMPerSocket = 1 << 30
			hc.SectionSize = 1 << 20
			hc.RMMUSections = 512
			return hc
		},
		TransceiversPerEP: replayTransceiversPerEP,
		Token:             replayToken,
		Faults:            faults,
		Events:            capEvents,
		MaxInflightSagas:  cfg.MaxInflightSagas,
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return w, nil
}

// replayInspector feeds the autoscaler a synthetic per-host memory view:
// fixed local DRAM minus the pressure random walk's demand, with overflow
// demand spilling into whatever remote memory is currently attached.
type replayInspector struct {
	d *replayDriver
}

func (ri *replayInspector) HostMemory() []controlplane.HostMemory {
	d := ri.d
	remote := make(map[string]int64)
	for _, rec := range d.svc.Attachments() {
		remote[rec.ComputeHost] += rec.Bytes
	}
	out := make([]controlplane.HostMemory, 0, len(d.w.Hosts))
	for i, h := range d.w.Hosts {
		local := replayLocalBytes
		demand := d.demand[i]
		hm := controlplane.HostMemory{
			Name:           h,
			LocalCapacity:  local,
			LocalFree:      max64(0, local-demand),
			RemoteAttached: remote[h],
		}
		hm.RemoteFree = max64(0, hm.RemoteAttached-max64(0, demand-local))
		out = append(out, hm)
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// replayDriver walks the churn trace, translating events into real
// control-plane calls and recovering from injected crashes. Attach and
// depart events run on cfg.Workers issuer goroutines; with one issuer the
// driver is the deterministic sequential replay, with more it races them
// against the admission limit.
type replayDriver struct {
	w      *cpworld.World
	cfg    ReplayConfig
	svc    *controlplane.Service
	scaler *controlplane.Autoscaler

	demand     []int64 // per-host pressure walk
	crashQueue []int   // scripted crash points not yet armed

	// mu guards live, known and the attach/depart tallies in rep against
	// concurrent issuers.
	mu    sync.Mutex
	live  map[int]string // churn attach seq -> executor attachment ID
	known map[string]bool
	rep   *ReplayReport
}

// boot starts a control-plane process over the world, arms the next
// scripted crash point, and points a fresh autoscaler at it.
func (d *replayDriver) boot() {
	d.svc = d.w.Boot(d.w.Faulty)
	if len(d.crashQueue) > 0 {
		d.w.Journal.FailAfter(d.crashQueue[0])
		d.crashQueue = d.crashQueue[1:]
	}
	if !d.cfg.NoAutoscale {
		d.scaler = controlplane.NewAutoscaler(d.svc, &replayInspector{d: d}, controlplane.AutoscalePolicy{
			LowWatermark:          0.15,
			HighWatermark:         0.60,
			StepBytes:             4 << 20,
			DonorReserve:          0.25,
			MaxAttachmentsPerHost: 24,
		})
	}
}

// reboot replaces a crashed control plane: bank the dead incarnation's
// counters, boot a fresh Service over the same world, replay the journal,
// and reconcile until the recovered state is clean.
func (d *replayDriver) reboot() {
	d.rep.Crashes++
	d.rep.Counters.Add(d.svc.Counters())
	d.boot()
	d.svc.Recover() //nolint:errcheck // recovery over a live journal cannot fail here
	d.svc.ReconcileUntilClean(8)
}

// handle applies one churn event, rebooting and re-issuing through crashes.
// Crash points are armed only with a single issuer, so recovery never
// races another issuer.
func (d *replayDriver) handle(ev dctrace.ChurnEvent) {
	for attempt := 0; attempt < 4; attempt++ {
		err := d.apply(ev)
		if err == nil || !controlplane.IsCrash(err) {
			return
		}
		d.reboot()
		switch ev.Kind {
		case dctrace.ChurnAttach:
			// Recovery may have rolled the crashed attach forward under its
			// original executor ID; adopt it instead of re-issuing.
			if d.adoptAttach(ev) {
				return
			}
		case dctrace.ChurnDepart:
			// Rolled-forward detach: the attachment is gone, nothing to redo.
			id := d.live[ev.Ref]
			if _, ok := d.svc.Attachment(id); !ok {
				delete(d.live, ev.Ref)
				delete(d.known, id)
				d.rep.DetachesOK++
				return
			}
		case dctrace.ChurnScale:
			// Absorb whatever the crashed evaluation attached before dying;
			// the next scale event re-evaluates from live state anyway.
			for _, rec := range d.svc.Attachments() {
				if !d.known[rec.ID] {
					d.known[rec.ID] = true
					d.rep.ScaleAttaches++
				}
			}
			return
		default:
			return
		}
	}
}

// adoptAttach looks for an attachment the recovery rolled forward matching
// the crashed churn attach and claims it.
func (d *replayDriver) adoptAttach(ev dctrace.ChurnEvent) bool {
	for _, rec := range d.svc.Attachments() {
		if d.known[rec.ID] {
			continue
		}
		if rec.ComputeHost == d.w.Hosts[ev.Compute] && rec.DonorHost == d.w.Hosts[ev.Donor] && rec.Bytes == ev.Bytes {
			d.known[rec.ID] = true
			d.live[ev.Seq] = rec.ID
			d.rep.AttachesOK++
			return true
		}
	}
	return false
}

// apply performs one event against the live control plane. Only crash
// errors propagate; everything else is tallied. Saga calls run outside
// d.mu — admission and execution are the service's concern, and racing
// issuers against SetMaxInflightSagas is what Workers > 1 exists for —
// while attach/depart bookkeeping happens under it. Flap, pressure and
// scale events run only on the dispatcher with the issuers drained.
func (d *replayDriver) apply(ev dctrace.ChurnEvent) error {
	switch ev.Kind {
	case dctrace.ChurnAttach:
		rec, err := d.svc.Attach(controlplane.AttachRequest{
			ComputeHost: d.w.Hosts[ev.Compute], DonorHost: d.w.Hosts[ev.Donor],
			Bytes: ev.Bytes, Channels: 1,
		})
		if controlplane.IsCrash(err) {
			return err
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		if err != nil {
			d.rep.AttachErrors++
			return nil
		}
		d.live[ev.Seq] = rec.ID
		d.known[rec.ID] = true
		d.rep.AttachesOK++

	case dctrace.ChurnDepart:
		d.mu.Lock()
		id, ok := d.live[ev.Ref]
		d.mu.Unlock()
		if !ok {
			d.mu.Lock()
			d.rep.DepartsSkipped++ // its attach failed or was shed
			d.mu.Unlock()
			return nil
		}
		_, alive := d.svc.Attachment(id)
		var err error
		if alive {
			err = d.svc.Detach(id)
		}
		if controlplane.IsCrash(err) {
			return err
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		switch {
		case !alive: // the autoscaler shrank it away first
			delete(d.live, ev.Ref)
			delete(d.known, id)
			d.rep.DepartsSkipped++
		case err != nil:
			d.rep.DetachErrors++
		default:
			delete(d.live, ev.Ref)
			delete(d.known, id)
			d.rep.DetachesOK++
		}

	case dctrace.ChurnFlap:
		d.w.Faulty.CrashAgent(d.w.Hosts[ev.Host]) //nolint:errcheck // host is always registered
		if ev.StormEnd {
			passes, _ := d.svc.ReconcileUntilClean(8)
			d.rep.Reconciler.StormReconciles++
			d.rep.Reconciler.StormPassesTotal += passes
			if passes > d.rep.Reconciler.StormPassesMax {
				d.rep.Reconciler.StormPassesMax = passes
			}
		}

	case dctrace.ChurnPressure:
		i := ev.Host
		d.demand[i] += ev.Bytes
		if d.demand[i] < 0 {
			d.demand[i] = 0
		}
		if limit := 2 * replayLocalBytes; d.demand[i] > limit {
			d.demand[i] = limit
		}

	case dctrace.ChurnScale:
		if d.scaler == nil {
			return nil
		}
		actions, err := d.scaler.Evaluate()
		for _, a := range actions {
			if a.Kind == "attach" {
				d.known[a.AttachmentID] = true
				d.rep.ScaleAttaches++
			} else {
				delete(d.known, a.AttachmentID)
				d.rep.ScaleDetaches++
			}
		}
		if err != nil {
			if controlplane.IsCrash(err) {
				return err
			}
			d.rep.ScaleErrors++
		}
	}
	return nil
}

// run walks the trace. Attach and depart events go to the issuers, routed
// by attachment sequence so each attachment's attach and depart stay
// ordered on one issuer; everything that acts on global state — flap
// storms, autoscaler evaluations, periodic reconciles — runs on the
// dispatcher after draining them. Pressure only moves dispatcher-local
// demand, which the autoscaler reads at those drains, so it needs none.
func (d *replayDriver) run(events []dctrace.ChurnEvent) {
	queues := make([]chan dctrace.ChurnEvent, d.cfg.Workers)
	var pending, issuers sync.WaitGroup
	for i := range queues {
		// A short queue lets the dispatcher run ahead of a busy issuer
		// between drains without buffering the whole trace.
		queues[i] = make(chan dctrace.ChurnEvent, 64)
		issuers.Add(1)
		go func(ch chan dctrace.ChurnEvent) {
			defer issuers.Done()
			for ev := range ch {
				d.handle(ev)
				pending.Done()
			}
		}(queues[i])
	}
	submit := func(ev dctrace.ChurnEvent, key int) {
		pending.Add(1)
		queues[key%len(queues)] <- ev
	}

	nextReconcile := replayReconcileEverySec
	for _, ev := range events {
		for ev.At >= nextReconcile {
			pending.Wait()
			d.svc.Reconcile()
			d.rep.Reconciler.PeriodicSweeps++
			nextReconcile += replayReconcileEverySec
		}
		switch ev.Kind {
		case dctrace.ChurnAttach:
			submit(ev, ev.Seq)
		case dctrace.ChurnDepart:
			submit(ev, ev.Ref)
		case dctrace.ChurnPressure:
			d.handle(ev)
		default: // flap, scale
			pending.Wait()
			d.handle(ev)
		}
	}
	pending.Wait()
	for _, ch := range queues {
		close(ch)
	}
	issuers.Wait()
}

// Replay runs the churn replay experiment and prints a summary table.
func Replay(w io.Writer, cfg ReplayConfig) (ReplayReport, error) {
	cfg.defaults()
	if cfg.Workers > 1 && len(cfg.crashPoints) > 0 {
		return ReplayReport{}, fmt.Errorf("replay: crash points require the sequential driver (workers=1), got workers=%d", cfg.Workers)
	}
	world, err := newReplayWorld(cfg)
	if err != nil {
		return ReplayReport{}, err
	}

	rep := ReplayReport{
		Experiment:       "replay",
		Seed:             cfg.Seed,
		Minutes:          cfg.Minutes,
		RatePerMinute:    cfg.RatePerMinute,
		Hosts:            replayHosts,
		FaultsEnabled:    !cfg.NoFaults,
		AutoscaleEnabled: !cfg.NoAutoscale,
		MaxInflightSagas: cfg.MaxInflightSagas,
		Workers:          cfg.Workers,
	}

	d := &replayDriver{
		w:          world,
		cfg:        cfg,
		demand:     make([]int64, replayHosts),
		crashQueue: cfg.crashPoints,
		live:       make(map[int]string),
		known:      make(map[string]bool),
		rep:        &rep,
	}
	d.boot()

	ch := dctrace.DefaultChurnConfig()
	ch.Seed = cfg.Seed
	ch.Minutes = cfg.Minutes
	ch.Hosts = replayHosts
	ch.AttachPerMinute = cfg.RatePerMinute
	ch.FlapStorms = cfg.Minutes // one flap storm per simulated minute
	events := dctrace.GenerateChurn(ch)
	rep.Trace = dctrace.MixOf(events)
	d.run(events)

	// Settle: sweep until clean, then check the converged state.
	rep.Reconciler.FinalPasses, rep.Reconciler.FinalClean = d.svc.ReconcileUntilClean(8)
	res := world.Check(d.svc)
	rep.FinalState = res.State
	rep.Invariants = append(rep.Invariants, res.Violations...)

	rep.Counters.Add(d.svc.Counters())
	rep.Transport = world.Faulty.Stats()
	rep.Journal.Entries, rep.Journal.Bytes = world.JournalStats()
	rep.EventsRecorded = world.Events.Recorded()
	rep.EventsDropped = world.Events.Dropped()

	rep.SagasCommitted = rep.AttachesOK + rep.DetachesOK + rep.ScaleAttaches + rep.ScaleDetaches
	rep.SagasPerSimMinute = float64(rep.SagasCommitted) / float64(cfg.Minutes)
	rep.SagasPerSimSecond = rep.SagasPerSimMinute / 60

	for _, p := range trace.ProfileSagas(res.Traces) {
		if p.Op == "attach" || p.Op == "detach" {
			rep.Profiles = append(rep.Profiles, p)
		}
	}

	printReplay(w, &rep)
	return rep, nil
}

func printReplay(w io.Writer, rep *ReplayReport) {
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	fmt.Fprintf(w, "Replay: churn trace vs the real control plane (seed %d)\n", rep.Seed)
	fmt.Fprintf(w, "  %d sim-minutes, %d hosts, %.0f attach/min, %d issuer(s), faults %s, autoscale %s\n",
		rep.Minutes, rep.Hosts, rep.RatePerMinute, rep.Workers,
		onOff(rep.FaultsEnabled), onOff(rep.AutoscaleEnabled))
	fmt.Fprintf(w, "  trace events       %d attach / %d depart / %d flap (%d storms) / %d pressure / %d scale\n",
		rep.Trace.Attaches, rep.Trace.Departs, rep.Trace.Flaps, rep.Trace.FlapStorms,
		rep.Trace.Pressure, rep.Trace.ScaleEvals)
	fmt.Fprintf(w, "  attaches           %d ok, %d failed\n", rep.AttachesOK, rep.AttachErrors)
	fmt.Fprintf(w, "  departs            %d ok, %d skipped, %d failed\n",
		rep.DetachesOK, rep.DepartsSkipped, rep.DetachErrors)
	fmt.Fprintf(w, "  autoscaler         %d attaches, %d detaches, %d errors\n",
		rep.ScaleAttaches, rep.ScaleDetaches, rep.ScaleErrors)
	fmt.Fprintf(w, "  crashes            %d\n", rep.Crashes)
	fmt.Fprintf(w, "  sagas committed    %d (%.1f per sim-minute, %.2f per sim-second)\n",
		rep.SagasCommitted, rep.SagasPerSimMinute, rep.SagasPerSimSecond)
	for _, p := range rep.Profiles {
		fmt.Fprintf(w, "  %-7s p50/p99    %d / %d ns (virtual, %d sagas)\n",
			p.Op, p.P50NS, p.P99NS, p.Count)
	}
	fmt.Fprintf(w, "  reconciler         %d periodic sweeps; %d storms, %d passes total (max %d); final clean=%v in %d\n",
		rep.Reconciler.PeriodicSweeps, rep.Reconciler.StormReconciles,
		rep.Reconciler.StormPassesTotal, rep.Reconciler.StormPassesMax,
		rep.Reconciler.FinalClean, rep.Reconciler.FinalPasses)
	fmt.Fprintf(w, "  journal            %d entries, %d bytes\n", rep.Journal.Entries, rep.Journal.Bytes)
	fmt.Fprintf(w, "  transport          %d sends, %d drops, %d dups, %d ambiguous\n",
		rep.Transport.Sends, rep.Transport.Drops, rep.Transport.Dups, rep.Transport.Ambiguous)
	fmt.Fprintf(w, "  saga counters      %d retries, %d compensations, %d parked, %d rejected\n",
		rep.Counters.SagaRetries, rep.Counters.SagaCompensations,
		rep.Counters.SagasParked, rep.Counters.SagasRejected)
	fmt.Fprintf(w, "  trace events       %d recorded, %d dropped\n", rep.EventsRecorded, rep.EventsDropped)
	fmt.Fprintf(w, "  final state        %d attachments, %d bytes, %d vertices reserved, %d agent-held, %d parked\n",
		rep.FinalState.Count, rep.FinalState.TotalBytes,
		rep.FinalState.ReservedVertices, rep.FinalState.AgentHeld, rep.FinalState.ParkedSagas)
	for _, v := range rep.Invariants {
		fmt.Fprintf(w, "  INVARIANT VIOLATED %s\n", v)
	}
}

// replayInstruments is the replay report's instrument table, published
// under "replay.": throughput, journal growth, reconciler convergence, and
// the fault/compensation tallies.
var replayInstruments = []instrument.Def[*ReplayReport]{
	replayCounter("sagas_committed", func(r *ReplayReport) int64 { return int64(r.SagasCommitted) }),
	replayCounter("attaches_ok", func(r *ReplayReport) int64 { return int64(r.AttachesOK) }),
	replayCounter("attach_errors", func(r *ReplayReport) int64 { return int64(r.AttachErrors) }),
	replayCounter("detaches_ok", func(r *ReplayReport) int64 { return int64(r.DetachesOK) }),
	replayCounter("detach_errors", func(r *ReplayReport) int64 { return int64(r.DetachErrors) }),
	replayCounter("scale_attaches", func(r *ReplayReport) int64 { return int64(r.ScaleAttaches) }),
	replayCounter("scale_detaches", func(r *ReplayReport) int64 { return int64(r.ScaleDetaches) }),
	replayCounter("crashes", func(r *ReplayReport) int64 { return int64(r.Crashes) }),
	replayCounter("flaps", func(r *ReplayReport) int64 { return int64(r.Trace.Flaps) }),
	replayCounter("journal_entries", func(r *ReplayReport) int64 { return r.Journal.Entries }),
	replayCounter("journal_bytes", func(r *ReplayReport) int64 { return r.Journal.Bytes }),
	replayCounter("reconcile_periodic_sweeps", func(r *ReplayReport) int64 { return int64(r.Reconciler.PeriodicSweeps) }),
	replayCounter("reconcile_storm_passes", func(r *ReplayReport) int64 { return int64(r.Reconciler.StormPassesTotal) }),
	replayCounter("saga_retries", func(r *ReplayReport) int64 { return r.Counters.SagaRetries }),
	replayCounter("saga_compensations", func(r *ReplayReport) int64 { return r.Counters.SagaCompensations }),
	replayCounter("sagas_parked", func(r *ReplayReport) int64 { return r.Counters.SagasParked }),
	replayCounter("sagas_rejected", func(r *ReplayReport) int64 { return r.Counters.SagasRejected }),
	replayCounter("transport_drops", func(r *ReplayReport) int64 { return r.Transport.Drops }),
	instrument.Gauge("sagas_per_sim_minute", func(r *ReplayReport) float64 { return r.SagasPerSimMinute }),
	instrument.Gauge("final_attachments", func(r *ReplayReport) float64 { return float64(r.FinalState.Count) }),
}

// replayProfileInstruments gives one saga operation's latency percentiles,
// bound under "replay.<op>".
var replayProfileInstruments = []instrument.Def[trace.OpProfile]{
	instrument.Gauge("_p50_ns", func(p trace.OpProfile) float64 { return float64(p.P50NS) }),
	instrument.Gauge("_p99_ns", func(p trace.OpProfile) float64 { return float64(p.P99NS) }),
}

func replayCounter(name string, field func(*ReplayReport) int64) instrument.Def[*ReplayReport] {
	return instrument.Counter(name, func(r *ReplayReport) float64 { return float64(field(r)) })
}

// RegisterReplayMetrics publishes the replay.* instruments of rep into the
// registry (and from there the Prometheus exposition).
func RegisterReplayMetrics(reg *metrics.Registry, rep *ReplayReport) {
	instrument.Register(reg, "", instrument.Bind("replay.", replayInstruments, rep))
	for _, p := range rep.Profiles {
		instrument.Register(reg, "", instrument.Bind("replay."+p.Op, replayProfileInstruments, p))
	}
}
