// Control-plane chaos: fault campaigns against the orchestration layer
// rather than the datapath. Scenarios drive a real controlplane.Service —
// saga engine, write-ahead journal, lossy agent transport, reconciliation
// loop — through agent crash-restarts, orchestrator crashes mid-saga, and
// duplicate-command storms, then assert the orchestration invariants: no
// leaked fabric reservations, no orphaned donor memory, no half-configured
// agents, no parked sagas after heal + reconcile.
//
// Like the datapath scenarios, every control-plane scenario derives its
// seed from (campaign seed, scenario name), uses zero-backoff retries and
// counter-only measurements, and therefore produces byte-identical reports
// per seed.

package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/core"
	"thymesisflow/internal/cpworld"
	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/trace"
)

const cpToken = "chaos-cp-token"

// CPScenario scripts one control-plane fault campaign.
type CPScenario struct {
	Name        string
	Description string
	run         func(seed int64, rep *CPScenarioReport, obs *CPObserver)
}

// CPObserver is the control-plane flight-recorder tap: the scenario world's
// deterministic step clock is wrapped with a timeseries.ClockSampler, so
// every few clock readings the observer records the service's saga counters
// and inflight gauge into cp.* series. It reads only atomic counters — the
// clock fires while the saga engine holds its own locks — and folds in the
// counters banked across crash-restarts so the series stay cumulative over
// the whole scenario, not one process lifetime.
type CPObserver struct {
	rec *timeseries.Recorder
	rep *CPScenarioReport

	svc *controlplane.Service
	w   *cpworld.World

	retries, repairs, parked, rejected, inflight *timeseries.Series

	// cp.raft.* series, created on the first boot of an HA world, so the
	// single-node scenarios' snapshots keep their pre-HA series set.
	raftTerm, raftCommit, raftElects *timeseries.Series
}

// NewCPObserver builds an observer recording into rec (which must be
// non-nil); pass it to RunCPRecorded.
func NewCPObserver(rec *timeseries.Recorder) *CPObserver {
	return &CPObserver{
		rec:      rec,
		retries:  rec.Series("cp.saga_retries", timeseries.Counter),
		repairs:  rec.Series("cp.reconcile_repairs", timeseries.Counter),
		parked:   rec.Series("cp.sagas_parked", timeseries.Counter),
		rejected: rec.Series("cp.sagas_rejected", timeseries.Counter),
		inflight: rec.Series("cp.saga_inflight", timeseries.Gauge),
	}
}

// wrap installs the sampling tap on the world clock.
func (o *CPObserver) wrap(inner trace.WallClock) trace.WallClock {
	cs := &timeseries.ClockSampler{Every: 8, Sample: o.sample}
	return cs.Wrap(inner)
}

// observe points the tap at the current control-plane process (the world
// calls it on every boot) and, in an HA world, adds the cp.raft.* series.
func (o *CPObserver) observe(svc *controlplane.Service) {
	o.svc = svc
	if o.w.Replicas != nil && o.raftTerm == nil {
		o.raftTerm = o.rec.Series("cp.raft.term", timeseries.Gauge)
		o.raftCommit = o.rec.Series("cp.raft.commit_index", timeseries.Counter)
		o.raftElects = o.rec.Series("cp.raft.leader_changes", timeseries.Counter)
	}
}

func (o *CPObserver) sample(ts int64) {
	svc := o.svc
	if svc == nil {
		return
	}
	cur := svc.Counters()
	banked := o.rep.Counters
	o.retries.Record(ts, float64(banked.SagaRetries+cur.SagaRetries))
	o.repairs.Record(ts, float64(banked.ReconcileRepairs+cur.ReconcileRepairs))
	o.parked.Record(ts, float64(banked.SagasParked+cur.SagasParked))
	o.rejected.Record(ts, float64(banked.SagasRejected+cur.SagasRejected))
	o.inflight.Record(ts, float64(svc.InflightSagas()))
	if o.raftTerm != nil {
		st := o.w.Replicas.Status(o.w.Leader)
		o.raftTerm.Record(ts, float64(st.Term))
		o.raftCommit.Record(ts, float64(st.Commit))
		o.raftElects.Record(ts, float64(o.w.Replicas.LeaderChanges()))
	}
}

// CPScenarioReport is one control-plane scenario's outcome. Every field is
// a deterministic counter, so reports are byte-identical per seed.
type CPScenarioReport struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Seed        int64    `json:"seed"`
	Passed      bool     `json:"passed"`
	Failures    []string `json:"failures,omitempty"`

	Attaches     int `json:"attaches"`
	Detaches     int `json:"detaches"`
	AttachErrors int `json:"attach_errors"`
	DetachErrors int `json:"detach_errors"`
	// Crashes counts orchestrator (control-plane) crash-restarts.
	Crashes int `json:"crashes"`
	// RecoveredSagas counts sagas journal replay had to resolve (restored,
	// rolled forward, or compensated) across all restarts.
	RecoveredSagas int `json:"recovered_sagas"`
	// FinalAttachments is the number of attachments live at scenario end.
	FinalAttachments int `json:"final_attachments"`

	Counters  controlplane.SagaCounters   `json:"counters"`
	Transport controlplane.TransportStats `json:"transport"`

	// Raft summarizes the replica set at scenario end. Only the HA scenarios
	// set it (pointer + omitempty keeps single-node reports byte-identical).
	Raft *cpworld.RaftSummary `json:"raft,omitempty"`

	// Trace summarizes the scenario's saga traces. The event log lives in
	// the world, not the Service, so traces span crash-restarts; timestamps
	// come from a deterministic step clock, so the summary is byte-identical
	// per seed. verify additionally asserts the tiling invariant: every
	// reconstructed saga's stage durations sum exactly to its wall time.
	Trace CPTraceSummary `json:"trace"`
}

// CPTraceSummary is the deterministic roll-up of a scenario's saga traces.
type CPTraceSummary struct {
	// Sagas is the number of distinct traces reconstructed from the log.
	Sagas int `json:"sagas"`
	// Events is the total number of events recorded (including any the
	// bounded log later evicted).
	Events uint64 `json:"events"`
	// TotalNS sums end-to-end wall time over all reconstructed sagas.
	TotalNS int64 `json:"total_ns"`
	// Stages is the aggregated stage mix across all sagas; the durations sum
	// to TotalNS (sorted by descending duration, then name).
	Stages []trace.StageSpan `json:"stages,omitempty"`
}

func (r *CPScenarioReport) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// newWorld builds a scenario's world: three hosts with four transceivers
// per endpoint, the scenario's transport faults seeded by seed, and, with
// ha, a 3-node Raft replica set carrying the journal. On failure it
// records the error and returns nil.
func newWorld(rep *CPScenarioReport, obs *CPObserver, seed int64, faults controlplane.TransportFaults, ha bool) *cpworld.World {
	faults.Seed = seed
	cfg := cpworld.Config{
		Hosts: []string{"node0", "node1", "node2"},
		Host: func(n string) core.HostConfig {
			hc := core.DefaultHostConfig(n)
			hc.SectionSize = 1 << 20
			hc.RMMUSections = 64
			return hc
		},
		TransceiversPerEP: 4,
		Token:             cpToken,
		Faults:            faults,
		Events:            1 << 14,
		Seed:              seed,
	}
	if ha {
		cfg.Replicas = haReplicaIDs
	}
	if obs != nil {
		obs.rep = rep
		cfg.WrapClock = obs.wrap
		cfg.OnBoot = obs.observe
	}
	w, err := cpworld.New(cfg)
	if err != nil {
		rep.fail("%v", err)
		return nil
	}
	if obs != nil {
		obs.w = w
	}
	return w
}

// restart replaces a control plane that died or was fenced mid-saga: bank
// its counters, fail over to a successor leader in an HA world (stopping
// the old leader's node when kill is set), then boot over the lossy
// transport, recover from the journal, and reconcile once. It returns nil
// after recording a failure.
func restart(w *cpworld.World, rep *CPScenarioReport, old *controlplane.Service, kill bool) *controlplane.Service {
	rep.Counters.Add(old.Counters())
	rep.Crashes++
	if w.Replicas != nil {
		if err := w.Failover(kill); err != nil {
			rep.fail("%v", err)
			return nil
		}
	}
	svc := w.Boot(w.Faulty)
	rr, err := svc.Recover()
	if err != nil {
		rep.fail("recover after crash %d: %v", rep.Crashes, err)
		return nil
	}
	rep.RecoveredSagas += rr.RolledForward + rr.Compensated + rr.Reparked
	svc.Reconcile()
	return svc
}

// heal banks the old process's counters, boots the control plane over the
// reliable transport, replays the journal, and reconciles to quiescence.
func heal(w *cpworld.World, rep *CPScenarioReport, old *controlplane.Service) *controlplane.Service {
	if old != nil {
		rep.Counters.Add(old.Counters())
	}
	svc := w.Boot(w.Direct)
	rr, err := svc.Recover()
	if err != nil {
		rep.fail("recover: %v", err)
		return svc
	}
	rep.RecoveredSagas += rr.RolledForward + rr.Compensated + rr.Reparked
	for i := 0; i < 5; i++ {
		if r := svc.Reconcile(); r.Repairs() == 0 && r.Unrepaired == 0 {
			break
		}
	}
	rep.Counters.Add(svc.Counters())
	return svc
}

// verify checks the world's end-state invariants under svc and fills the
// report's final tallies and saga-trace roll-up.
func verify(w *cpworld.World, rep *CPScenarioReport, svc *controlplane.Service) {
	res := w.Check(svc)
	rep.FinalAttachments = res.State.Count
	rep.Failures = append(rep.Failures, res.Violations...)
	rep.Transport = w.Faulty.Stats()

	byCat := map[string]int64{}
	for _, t := range res.Traces {
		for _, st := range t.Stages {
			byCat[st.Name] += st.DurNS
		}
		rep.Trace.TotalNS += t.TotalNS
	}
	rep.Trace.Sagas = len(res.Traces)
	rep.Trace.Events = w.Events.Recorded()
	rep.Trace.Stages = make([]trace.StageSpan, 0, len(byCat))
	for name, dur := range byCat {
		s := trace.StageSpan{Name: name, DurNS: dur}
		if rep.Trace.TotalNS > 0 {
			s.Pct = 100 * float64(dur) / float64(rep.Trace.TotalNS)
		}
		rep.Trace.Stages = append(rep.Trace.Stages, s)
	}
	sort.Slice(rep.Trace.Stages, func(i, j int) bool {
		a, b := rep.Trace.Stages[i], rep.Trace.Stages[j]
		if a.DurNS != b.DurNS {
			return a.DurNS > b.DurNS
		}
		return a.Name < b.Name
	})
}

// attach runs the i-th attach of a scenario between a rotating host pair,
// tallying a success; it returns the record ID and the error.
func attach(w *cpworld.World, rep *CPScenarioReport, svc *controlplane.Service, i int) (string, error) {
	n := len(w.Hosts)
	rec, err := svc.Attach(controlplane.AttachRequest{
		ComputeHost: w.Hosts[i%n], DonorHost: w.Hosts[(i+1)%n], Bytes: 1 << 20, Channels: 1,
	})
	if err != nil {
		return "", err
	}
	rep.Attaches++
	return rec.ID, nil
}

// crashWorkload runs eight operations, alternating attaches with detaches
// of the oldest attachment. Every even operation arms a journal crash a few
// appends in (first on operation 0, then drawn from the seed), so the
// process dies mid-saga and restart recovers it; odd operations run with
// the journal healthy so the workload makes real progress.
func crashWorkload(w *cpworld.World, rep *CPScenarioReport, svc *controlplane.Service, seed int64, first int) *controlplane.Service {
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < 8; op++ {
		if op%2 == 0 {
			crashPoint := first
			if op > 0 {
				crashPoint = rng.Intn(12)
			}
			w.Journal.FailAfter(crashPoint)
		} else {
			w.Journal.FailAfter(-1)
		}

		var err error
		live := svc.Attachments()
		if len(live) > 0 && op%3 == 2 {
			if err = svc.Detach(live[0].ID); err == nil {
				rep.Detaches++
			}
		} else {
			_, err = attach(w, rep, svc, op)
		}
		if err != nil && controlplane.IsCrash(err) {
			if svc = restart(w, rep, svc, true); svc == nil {
				return nil
			}
		} else if err != nil {
			rep.AttachErrors++
		}
	}
	return svc
}

// CPCatalogue returns the control-plane scenario set: the single-node
// scenarios below plus the HA replica-set scenarios (ha.go).
func CPCatalogue() []CPScenario {
	return append([]CPScenario{
		{
			Name: "cp-agent-flap",
			Description: "agents crash-restart under a lossy transport, losing volatile state; " +
				"the reconciliation loop must re-push configuration from the records",
			run: runAgentFlap,
		},
		{
			Name: "cp-orchestrator-crash-midsaga",
			Description: "the control plane crashes after random journal appends mid-saga; " +
				"each restart replays the journal and must converge with no leaked state",
			run: runOrchestratorCrash,
		},
		{
			Name: "cp-duplicate-command-storm",
			Description: "nearly every command is delivered twice and acks are frequently lost; " +
				"idempotent (AttachmentID, Epoch) application must keep agents exact",
			run: runDuplicateStorm,
		},
	}, haCatalogue()...)
}

func runAgentFlap(seed int64, rep *CPScenarioReport, obs *CPObserver) {
	w := newWorld(rep, obs, seed, controlplane.TransportFaults{
		DropProb: 0.05, DupProb: 0.10, AmbiguousProb: 0.10,
	}, false)
	if w == nil {
		return
	}
	svc := w.Boot(w.Faulty)
	rng := rand.New(rand.NewSource(seed))
	var ids []string
	for i := 0; i < 6; i++ {
		if id, err := attach(w, rep, svc, i); err != nil {
			rep.AttachErrors++
		} else {
			ids = append(ids, id)
		}
		// Flap a random agent and let the reconciler repair it.
		if i%2 == 1 {
			host := w.Hosts[rng.Intn(len(w.Hosts))]
			w.Faulty.CrashAgent(host) //nolint:errcheck // hosts are registered
			svc.Reconcile()
		}
	}
	for i, id := range ids {
		if i%2 != 0 {
			continue
		}
		if err := svc.Detach(id); err != nil {
			rep.DetachErrors++
		} else {
			rep.Detaches++
		}
	}
	svc = heal(w, rep, svc)
	verify(w, rep, svc)
	if rep.Transport.Crashes == 0 {
		rep.fail("no agent crash-restart was injected")
	}
	if rep.Counters.ReconcileRepairs == 0 {
		rep.fail("reconciler repaired nothing despite agent flaps")
	}
}

func runOrchestratorCrash(seed int64, rep *CPScenarioReport, obs *CPObserver) {
	w := newWorld(rep, obs, seed, controlplane.TransportFaults{
		DropProb: 0.05, DupProb: 0.10, AmbiguousProb: 0.10,
	}, false)
	if w == nil {
		return
	}
	// Operation 0 always crashes three appends into its attach.
	svc := crashWorkload(w, rep, w.Boot(w.Faulty), seed, 3)
	if svc == nil {
		return
	}
	svc = heal(w, rep, svc)
	verify(w, rep, svc)
	if rep.Crashes == 0 {
		rep.fail("no orchestrator crash was exercised")
	}
	if rep.RecoveredSagas == 0 {
		rep.fail("recovery never resolved an in-flight saga")
	}
}

func runDuplicateStorm(seed int64, rep *CPScenarioReport, obs *CPObserver) {
	w := newWorld(rep, obs, seed, controlplane.TransportFaults{
		DupProb: 0.90, AmbiguousProb: 0.40,
	}, false)
	if w == nil {
		return
	}
	svc := w.Boot(w.Faulty)
	var ids []string
	for i := 0; i < 4; i++ {
		if id, err := attach(w, rep, svc, i); err != nil {
			rep.AttachErrors++
		} else {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		if err := svc.Detach(id); err != nil {
			rep.DetachErrors++
		} else {
			rep.Detaches++
		}
	}
	svc = heal(w, rep, svc)
	verify(w, rep, svc)
	if rep.Transport.Dups == 0 {
		rep.fail("no duplicate delivery was injected")
	}
	if rep.Counters.SagaRetries == 0 {
		rep.fail("lost acks never forced a retry")
	}
	if rep.FinalAttachments != 0 {
		rep.fail("%d attachments survived full teardown", rep.FinalAttachments)
	}
}

// RunCP executes one control-plane scenario under the campaign seed.
func RunCP(s CPScenario, campaignSeed int64) CPScenarioReport {
	seed := deriveSeed(campaignSeed, s.Name)
	rep := CPScenarioReport{Name: s.Name, Description: s.Description, Seed: seed}
	s.run(seed, &rep, nil)
	rep.Passed = len(rep.Failures) == 0
	return rep
}

// RunCPRecorded is RunCP with a flight-recorder tap on the scenario world:
// alongside the report it returns the cp.* telemetry snapshot, timestamped
// by the world's deterministic step clock (so the snapshot is byte-identical
// per seed, like the report).
func RunCPRecorded(s CPScenario, campaignSeed int64, capacity int) (CPScenarioReport, timeseries.Snapshot) {
	seed := deriveSeed(campaignSeed, s.Name)
	rep := CPScenarioReport{Name: s.Name, Description: s.Description, Seed: seed}
	obs := NewCPObserver(timeseries.NewRecorder(capacity))
	s.run(seed, &rep, obs)
	rep.Passed = len(rep.Failures) == 0
	return rep, obs.rec.Snapshot()
}

// RunCPCampaign executes the control-plane catalogue serially.
func RunCPCampaign(scenarios []CPScenario, seed int64) []CPScenarioReport {
	out := make([]CPScenarioReport, 0, len(scenarios))
	for _, s := range scenarios {
		out = append(out, RunCP(s, seed))
	}
	return out
}

// FindCP returns the control-plane scenario with the given name.
func FindCP(name string) (CPScenario, bool) {
	for _, s := range CPCatalogue() {
		if s.Name == name {
			return s, true
		}
	}
	return CPScenario{}, false
}
