package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"time"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/core"
	"thymesisflow/internal/dctrace"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/trace"
)

const (
	churnHosts        = 8
	churnTransceivers = 32
	churnToken        = "perfbench"
	// reconcileEvery is the periodic reconciler cadence in trace seconds.
	reconcileEvery = 20.0
	// churnLocalBytes is each host's synthetic local DRAM for the pressure
	// walk the autoscaler reacts to.
	churnLocalBytes = 64 << 20
)

// churnInst is one control-plane world: an 8-host cluster behind a
// journaled saga service, agents over a seeded lossy transport, an
// autoscaler, and the churn trace one closed-loop issuer replays.
type churnInst struct {
	log     *spanLog
	cluster *core.Cluster
	model   *controlplane.Model
	direct  *controlplane.DirectTransport
	faulty  *controlplane.FaultyTransport
	mem     *controlplane.MemJournal
	count   *controlplane.CountingJournal // traced runs only
	elog    *trace.EventLog               // traced runs only
	svc     *controlplane.Service
	scaler  *controlplane.Autoscaler
	hosts   []string
	events  []dctrace.ChurnEvent
	genS    float64

	demand []int64        // per-host pressure walk
	live   map[int]string // attach seq -> attachment ID

	attachOK, detachOK, skipped, scaleAttach, scaleDetach int
	reconcileMS                                           float64
	reconcilePasses                                       int
	scaleMS                                               []float64
	finalPasses                                           int
	finalClean                                            bool
	errs                                                  []string
}

func setupChurn(seed int64, sz sizes, log *spanLog) (instance, error) {
	in := &churnInst{log: log, cluster: core.NewCluster(), model: controlplane.NewModel(),
		direct: controlplane.NewDirectTransport(), mem: controlplane.NewMemJournal(),
		demand: make([]int64, churnHosts), live: map[int]string{}}
	for i := 0; i < churnHosts; i++ {
		name := fmt.Sprintf("churn%02d", i)
		in.hosts = append(in.hosts, name)
		hc := core.DefaultHostConfig(name)
		hc.Sockets = 1
		hc.CoresPerSocket = 2
		hc.DRAMPerSocket = 1 << 30
		hc.SectionSize = 1 << 20
		hc.RMMUSections = 512
		if _, err := in.cluster.AddHost(hc); err != nil {
			return nil, err
		}
		if err := in.model.AddHost(name, churnTransceivers); err != nil {
			return nil, err
		}
		in.direct.Register(agent.New(name, churnToken))
	}
	// Cable every compute endpoint to every other host's memory endpoint.
	for _, a := range in.hosts {
		for _, b := range in.hosts {
			if a == b {
				continue
			}
			ca := in.model.Transceivers(a, controlplane.LabelComputeEP)
			mb := in.model.Transceivers(b, controlplane.LabelMemoryEP)
			for i := 0; i < len(ca) && i < len(mb); i++ {
				if err := in.model.Cable(ca[i], mb[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	in.faulty = controlplane.NewFaultyTransport(in.direct, controlplane.TransportFaults{
		Seed: seed, DropProb: 0.02, DupProb: 0.04, AmbiguousProb: 0.04,
	})

	var journal controlplane.Journal = in.mem
	var transport controlplane.Transport = in.faulty
	var exec controlplane.Executor = controlplane.ClusterExecutor{Cluster: in.cluster}
	if log != nil {
		in.count = controlplane.NewCountingJournal(in.mem)
		journal = timedJournal{in.count, log}
		transport = timedTransport{in.faulty, log}
		exec = timedExecutor{controlplane.ClusterExecutor{Cluster: in.cluster}, log}
	}
	in.svc = controlplane.NewService(in.model, exec, churnToken)
	in.svc.SetJournal(journal)
	in.svc.SetTransport(transport)
	in.svc.SetRetryPolicy(controlplane.RetryPolicy{MaxAttempts: 6})
	in.svc.SetMaxInflightSagas(64)
	if log != nil {
		// About 56 events per saga; the ring drops the oldest beyond this.
		in.elog = trace.NewEventLog(1 << 18)
		in.svc.SetSagaTracing(in.elog, trace.Monotonic())
	}
	in.scaler = controlplane.NewAutoscaler(in.svc, in, controlplane.AutoscalePolicy{
		LowWatermark: 0.15, HighWatermark: 0.60, StepBytes: 4 << 20,
		DonorReserve: 0.25, MaxAttachmentsPerHost: 24,
	})

	cfg := dctrace.DefaultChurnConfig()
	cfg.Seed = seed
	cfg.Minutes = sz.churnMinutes
	cfg.Hosts = churnHosts
	cfg.AttachPerMinute = sz.churnRate
	cfg.FlapStorms = sz.churnMinutes
	t0 := time.Now()
	log.time("dctrace.generate", func() { in.events = dctrace.GenerateChurn(cfg) })
	in.genS = time.Since(t0).Seconds()
	return in, nil
}

// HostMemory feeds the autoscaler a synthetic per-host view: fixed local
// DRAM minus the pressure walk's demand, with overflow spilling into the
// remote memory currently attached.
func (in *churnInst) HostMemory() []controlplane.HostMemory {
	remote := map[string]int64{}
	for _, rec := range in.svc.Attachments() {
		remote[rec.ComputeHost] += rec.Bytes
	}
	out := make([]controlplane.HostMemory, 0, len(in.hosts))
	for i, h := range in.hosts {
		hm := controlplane.HostMemory{
			Name:           h,
			LocalCapacity:  churnLocalBytes,
			LocalFree:      max(0, churnLocalBytes-in.demand[i]),
			RemoteAttached: remote[h],
		}
		hm.RemoteFree = max(0, hm.RemoteAttached-max(0, in.demand[i]-churnLocalBytes))
		out = append(out, hm)
	}
	return out
}

func (in *churnInst) run() (*outcome, error) {
	out := newOutcome()
	next := reconcileEvery
	for _, ev := range in.events {
		for ev.At >= next {
			in.reconcile(func() int { in.svc.Reconcile(); return 1 })
			next += reconcileEvery
		}
		in.apply(ev, out)
	}
	in.reconcile(func() int {
		in.finalPasses, in.finalClean = in.svc.ReconcileUntilClean(8)
		return in.finalPasses
	})
	return out, nil
}

func (in *churnInst) reconcile(fn func() (passes int)) {
	t0 := time.Now()
	var passes int
	in.log.time("reconcile", func() { passes = fn() })
	in.reconcileMS += float64(time.Since(t0)) / 1e6
	in.reconcilePasses += passes
}

// saga times one Service call as a saga.
func (in *churnInst) saga(op string, out *outcome, fn func() error) error {
	t0 := time.Now()
	var err error
	in.log.time("saga."+op, func() { err = fn() })
	out.host["saga_us"] = append(out.host["saga_us"], float64(time.Since(t0))/1e3)
	out.ops++
	if err != nil {
		out.failed++
		if len(in.errs) < 5 {
			in.errs = append(in.errs, fmt.Sprintf("%s: %v", op, err))
		}
	}
	return err
}

func (in *churnInst) apply(ev dctrace.ChurnEvent, out *outcome) {
	switch ev.Kind {
	case dctrace.ChurnAttach:
		var rec *controlplane.AttachmentRecord
		err := in.saga("attach", out, func() (err error) {
			rec, err = in.svc.Attach(controlplane.AttachRequest{
				ComputeHost: in.hosts[ev.Compute], DonorHost: in.hosts[ev.Donor],
				Bytes: ev.Bytes, Channels: 1,
			})
			return err
		})
		if err == nil {
			in.live[ev.Seq] = rec.ID
			in.attachOK++
		}
	case dctrace.ChurnDepart:
		id, ok := in.live[ev.Ref]
		delete(in.live, ev.Ref)
		if _, alive := in.svc.Attachment(id); !ok || !alive {
			in.skipped++ // its attach failed, or the autoscaler shrank it away
			return
		}
		if in.saga("detach", out, func() error { return in.svc.Detach(id) }) == nil {
			in.detachOK++
		}
	case dctrace.ChurnFlap:
		in.faulty.CrashAgent(in.hosts[ev.Host]) //nolint:errcheck // every host has an agent
		if ev.StormEnd {
			in.reconcile(func() int { passes, _ := in.svc.ReconcileUntilClean(8); return passes })
		}
	case dctrace.ChurnPressure:
		d := &in.demand[ev.Host]
		*d = min(max(0, *d+ev.Bytes), 2*churnLocalBytes)
	case dctrace.ChurnScale:
		t0 := time.Now()
		var actions []controlplane.Action
		var err error
		in.log.time("autoscale", func() { actions, err = in.scaler.Evaluate() })
		in.scaleMS = append(in.scaleMS, float64(time.Since(t0))/1e6)
		for _, a := range actions {
			out.ops++
			if a.Kind == "attach" {
				in.scaleAttach++
			} else {
				in.scaleDetach++
			}
		}
		if err != nil {
			out.ops++
			out.failed++
			if len(in.errs) < 5 {
				in.errs = append(in.errs, fmt.Sprintf("autoscale: %v", err))
			}
		}
	}
}

// check verifies the converged end state — executor attachments equal the
// records, reserved vertices equal the union of record paths, no agent holds
// an orphan, the final reconcile ends clean — and reads the counters.
func (in *churnInst) check(out *outcome) error {
	recs := in.svc.Attachments()
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	exec := map[string]bool{}
	for _, a := range in.cluster.Attachments() {
		exec[a.ID] = true
	}
	if len(exec) != len(recs) {
		bad("executor holds %d attachments, records hold %d", len(exec), len(recs))
	}
	pathVertices := 0
	bySaga := map[string]*controlplane.AttachmentRecord{}
	type key struct {
		compute, donor string
		bytes          int64
	}
	multiset := map[key]int{}
	for _, rec := range recs {
		if !exec[rec.ID] {
			bad("record %s has no datapath attachment", rec.ID)
		}
		for _, n := range rec.PathLen {
			pathVertices += n
		}
		bySaga[rec.SagaID] = rec
		multiset[key{rec.ComputeHost, rec.DonorHost, rec.Bytes}]++
	}
	reserved := len(in.model.ReservedIDs())
	if reserved != pathVertices {
		bad("%d vertices reserved, records imply %d", reserved, pathVertices)
	}
	held := 0
	for _, h := range in.hosts {
		a, _ := in.direct.Agent(h)
		for _, att := range a.Status().Attachments {
			held++
			if _, ok := bySaga[att.ID]; !ok {
				bad("agent %s holds orphaned attachment %s", h, att.ID)
			}
		}
	}
	if !in.finalClean {
		bad("final reconcile not clean after %d passes", in.finalPasses)
	}
	if n := len(in.svc.ParkedSagas()); n != 0 {
		bad("%d sagas still parked", n)
	}
	if out.failed > 0 {
		bad("%d sagas failed, first: %v", out.failed, in.errs)
	}

	entries, err := in.mem.Entries()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	ctr := in.svc.Counters()
	ts := in.faulty.Stats()
	sagas := float64(out.ops)
	l := out.layer
	l["saga.retries"] = float64(ctr.SagaRetries)
	l["saga.compensations"] = float64(ctr.SagaCompensations)
	l["saga.parked"] = float64(ctr.SagasParked)
	l["saga.rejected"] = float64(ctr.SagasRejected)
	l["reconcile.repairs"] = float64(ctr.ReconcileRepairs)
	l["reconcile.ms_per_pass"] = ratio(in.reconcileMS, float64(in.reconcilePasses))
	l["autoscale.ms_per_eval"] = mean(in.scaleMS)
	l["journal.appends_per_saga"] = ratio(float64(len(entries)), sagas)
	l["transport.sends_per_saga"] = ratio(float64(ts.Sends), sagas)
	l["transport.drops"] = float64(ts.Drops)
	l["transport.dups"] = float64(ts.Dups)
	l["transport.ambiguous"] = float64(ts.Ambiguous)
	l["dctrace.gen_s"] = in.genS
	if in.log != nil {
		in.traceLayers(l)
	}

	keys := make([]key, 0, len(multiset))
	for k := range multiset {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.compute != b.compute {
			return a.compute < b.compute
		}
		if a.donor != b.donor {
			return a.donor < b.donor
		}
		return a.bytes < b.bytes
	})
	h := sha256.New()
	fmt.Fprintf(h, "events=%d sagas=%d failed=%d attach=%d detach=%d skipped=%d scale=%d/%d\n",
		len(in.events), out.ops, out.failed, in.attachOK, in.detachOK, in.skipped, in.scaleAttach, in.scaleDetach)
	fmt.Fprintf(h, "counters=%+v transport=%+v journal=%d reserved=%d held=%d passes=%d\n",
		ctr, ts, len(entries), reserved, held, in.finalPasses)
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s %d x%d\n", k.compute, k.donor, k.bytes, multiset[k])
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	if len(problems) > 0 {
		return fmt.Errorf("%v", problems)
	}
	return nil
}

// traceLayers reads the traced run's span and saga event-log breakdowns.
func (in *churnInst) traceLayers(l map[string]float64) {
	_, bytes := in.count.Stats()
	l["journal.bytes"] = float64(bytes)
	l["journal.us_per_append"] = mean(in.log.durations("journal.append"))
	l["transport.us_per_send"] = mean(in.log.durations("transport.send"))
	att := in.log.durations("executor.attach")
	l["executor.attach_us_p50"] = median(att)
	l["executor.attach_us_p99"] = quantile(att, 0.99)
	l["executor.detach_us_p50"] = median(in.log.durations("executor.detach"))
	self := in.log.selfMicros("saga.attach", "saga.detach")
	l["saga.self_us_p50"] = median(self)
	l["saga.self_us_p99"] = quantile(self, 0.99)

	stage := map[string]int64{}
	n := 0
	for _, t := range trace.BuildSagaTraces(in.elog.Snapshot()) {
		if t.Op != "attach" && t.Op != "detach" {
			continue
		}
		n++
		for _, s := range t.Stages {
			stage[s.Name] += s.DurNS
		}
	}
	for _, st := range sagaStages {
		l["saga.step."+st+"_us"] = ratio(float64(stage[st]), float64(n)) / 1e3
	}
}

func reportChurn(w io.Writer, ph *phase) {
	fmt.Fprintf(w, "sagas_per_s        %s\n", timing(ph.opsPerS, "sagas/s"))
	fmt.Fprintf(w, "saga latency       %s (host wall, Service.Attach/Detach)\n", timing(ph.host["saga_us"], "us"))
}

// The timed wrappers below time the control plane's calls into the
// journal, the agent transport and the executor. They change nothing else:
// every other method is the wrapped value's.

type timedJournal struct {
	*controlplane.CountingJournal
	log *spanLog
}

func (j timedJournal) Append(e controlplane.JournalEntry) error {
	i := j.log.begin("journal.append")
	defer j.log.end(i)
	return j.CountingJournal.Append(e)
}

type timedTransport struct {
	*controlplane.FaultyTransport
	log *spanLog
}

func (t timedTransport) Send(host, token string, cmd agent.Command) error {
	i := t.log.begin("transport.send")
	defer t.log.end(i)
	return t.FaultyTransport.Send(host, token, cmd)
}

func (t timedTransport) Query(host string) (agent.Status, error) {
	i := t.log.begin("transport.query")
	defer t.log.end(i)
	return t.FaultyTransport.Query(host)
}

type timedExecutor struct {
	controlplane.ClusterExecutor
	log *spanLog
}

func (e timedExecutor) Attach(computeHost, donorHost string, bytes int64, channels int) (string, mem.NodeID, error) {
	i := e.log.begin("executor.attach")
	defer e.log.end(i)
	return e.ClusterExecutor.Attach(computeHost, donorHost, bytes, channels)
}

func (e timedExecutor) Detach(id string) error {
	i := e.log.begin("executor.detach")
	defer e.log.end(i)
	return e.ClusterExecutor.Detach(id)
}
