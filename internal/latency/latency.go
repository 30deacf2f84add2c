// Package latency is the per-transaction latency-attribution pipeline: it
// decomposes the round trip of every CAPI transaction into the stages of the
// ThymesisFlow datapath, reconstructing the paper's Section V latency budget
// (a ~950 ns flit RTT made of four FPGA-stack crossings and six serDES
// crossings) as a live, per-stage measurement instead of a single end-to-end
// number.
//
// A transaction that is being attributed carries a compact *Record in its
// header (capi.Transaction.Lat). Each layer the transaction crosses stamps
// its stage in virtual time:
//
//	compute endpoint  issue / translate / capi_cross / complete
//	llc port          credit_stall / llc_queue / ret_queue
//	llc rx + phy      frame_tx / phy_flight / ret_tx / ret_flight
//	memory endpoint   c1_ingress / c1_service / c1_egress
//
// Stamping follows the same nil-check discipline as internal/trace: every
// site guards with `if t.Lat != nil`, so the disabled path costs one pointer
// compare and zero allocations (TestClusterLoadAllocs in internal/core
// bounds an untraced load's allocations). When enabled — by a Sink or by a
// tracer on the kernel — records are allocated per transaction, folded into
// per-stage histograms on completion, and emitted as the transaction's
// trace spans (Record.Emit).
//
// Stages tile the round trip exactly: a Record advances an internal mark on
// every stamp, so the sum of stage durations equals the end-to-end latency
// picosecond for picosecond. The Sink counts any record violating this as
// skewed — a reconciliation failure surfaced in every Breakdown.
package latency

import (
	"sort"
	"sync"

	"thymesisflow/internal/metrics"
	"thymesisflow/internal/trace"
)

// Stage identifies one segment of a transaction's round trip. The stages
// partition the timeline in order; stages a transaction does not experience
// (a credit stall on an uncontended link, queueing on an idle C1 master)
// contribute zero.
type Stage uint8

// The datapath stages, in round-trip order.
const (
	// StageIssue: admission on the compute host — QoS arbitration and tag
	// assignment before translation. Zero in the uncontended model.
	StageIssue Stage = iota
	// StageTranslate: the RMMU section-table lookup. Combinational in the
	// prototype FPGA (its cost is part of the stack crossing), so zero
	// virtual time here; faults abort the record instead.
	StageTranslate
	// StageCapiCross: the compute-side OpenCAPI ingress — one FPGA-stack
	// crossing plus one serDES crossing (endpoint.SideLatency).
	StageCapiCross
	// StageCreditStall: LLC Tx backpressure — the issuing process blocked
	// waiting for receiver credits.
	StageCreditStall
	// StageLLCQueue: time in the LLC pending queue until the transaction is
	// packed into a frame (head-of-line waits, flush batching).
	StageLLCQueue
	// StageFrameTx: request frame time on the wire minus the flight
	// crossing — serialization, queueing behind earlier frames, and any
	// replay delay repairing a lost or corrupted frame.
	StageFrameTx
	// StagePhyFlight: the request's serDES flight crossing.
	StagePhyFlight
	// StageC1Ingress: the donor-side attachment ingress crossing.
	StageC1Ingress
	// StageC1Service: the C1 master's service time — bandwidth-ceiling
	// queueing plus donor DRAM.
	StageC1Service
	// StageC1Egress: the donor-side attachment egress crossing.
	StageC1Egress
	// StageRetQueue: the response's LLC pending-queue wait at the donor.
	StageRetQueue
	// StageRetTx: the response frame's wire time minus flight
	// (serialization, queueing, replay).
	StageRetTx
	// StageRetFlight: the response's serDES flight crossing.
	StageRetFlight
	// StageComplete: the compute-side egress crossing and completion
	// wake-up delivering the response to the CPU.
	StageComplete

	// NumStages is the number of attribution stages.
	NumStages = int(StageComplete) + 1
)

var stageNames = [NumStages]string{
	"issue", "translate", "capi_cross", "credit_stall", "llc_queue",
	"frame_tx", "phy_flight", "c1_ingress", "c1_service", "c1_egress",
	"ret_queue", "ret_tx", "ret_flight", "complete",
}

// stageLayer is the trace layer that owns each stage: the layer whose
// hardware the transaction occupies for it. The frame stages belong to the
// LLC, whose replays they include; only the flight crossings are phy.
var stageLayer = [NumStages]string{
	StageIssue: trace.LayerCAPI, StageTranslate: trace.LayerRMMU, StageCapiCross: trace.LayerCAPI,
	StageCreditStall: trace.LayerLLC, StageLLCQueue: trace.LayerLLC, StageFrameTx: trace.LayerLLC,
	StagePhyFlight: trace.LayerPhy, StageC1Ingress: trace.LayerCAPI, StageC1Service: trace.LayerCAPI,
	StageC1Egress: trace.LayerCAPI, StageRetQueue: trace.LayerLLC, StageRetTx: trace.LayerLLC,
	StageRetFlight: trace.LayerPhy, StageComplete: trace.LayerCAPI,
}

// String returns the stage's snake_case name (used in metrics, JSON, and
// Prometheus series).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "stage(?)"
}

// Stages lists every stage in round-trip order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// crossing marks the stages that are fixed attachment-hardware or wire
// crossings: summed, they reconstruct the paper's flit RTT (4 FPGA-stack
// crossings in StageCapiCross, StageC1Ingress, StageC1Egress, StageComplete;
// 6 serDES crossings split across those four plus the two flight stages).
var crossing = [NumStages]bool{
	StageCapiCross: true, StagePhyFlight: true, StageC1Ingress: true,
	StageC1Egress: true, StageRetFlight: true, StageComplete: true,
}

// IsCrossing reports whether the stage is part of the flit-RTT crossing
// budget.
func (s Stage) IsCrossing() bool { return int(s) < NumStages && crossing[s] }

// Record is the per-transaction stage accounting a transaction under
// attribution carries through the stack. All times are virtual picoseconds.
// A Record belongs to one simulation kernel and must not be shared.
type Record struct {
	// Flow is the transaction's network identifier, stamped after RMMU
	// translation; the Sink aggregates per flow (per attachment).
	Flow uint16

	start int64
	mark  int64
	end   int64
	durs  [NumStages]int64
}

// NewRecord starts a record at the given virtual time.
func NewRecord(nowPS int64) *Record {
	return &Record{start: nowPS, mark: nowPS}
}

// MarkTo attributes the time since the previous stamp to stage and advances
// the mark to nowPS. Consecutive MarkTo calls therefore tile the timeline
// with no gaps or double counting.
func (r *Record) MarkTo(s Stage, nowPS int64) {
	if d := nowPS - r.mark; d > 0 {
		r.durs[s] += d
	}
	r.mark = nowPS
}

// Add attributes a known duration to stage and advances the mark by it —
// used when a layer schedules a composite delay up front (the memory
// endpoint's ingress + C1 service + egress) and the intermediate instants
// never occur as events.
func (r *Record) Add(s Stage, durPS int64) {
	if durPS <= 0 {
		return
	}
	r.durs[s] += durPS
	r.mark += durPS
}

// Wire splits the time since the previous stamp between a serialization
// stage and a flight stage: flightPS goes to flight (clamped to the elapsed
// time), the rest to tx. Called by the receiving LLC port, which knows the
// inbound crossing latency.
func (r *Record) Wire(tx, flight Stage, nowPS, flightPS int64) {
	elapsed := nowPS - r.mark
	if elapsed < 0 {
		elapsed = 0
	}
	if flightPS > elapsed {
		flightPS = elapsed
	}
	if flightPS < 0 {
		flightPS = 0
	}
	if d := elapsed - flightPS; d > 0 {
		r.durs[tx] += d
	}
	if flightPS > 0 {
		r.durs[flight] += flightPS
	}
	r.mark = nowPS
}

// Finish closes the record at nowPS, attributing any residual to
// StageComplete.
func (r *Record) Finish(nowPS int64) {
	r.MarkTo(StageComplete, nowPS)
	r.end = nowPS
}

// tiles reports whether a finished record's stage durations sum to its
// round trip exactly.
func (r *Record) tiles() bool {
	var sum int64
	for _, d := range r.durs {
		sum += d
	}
	return sum == r.end-r.start
}

// Emit records a finished record on tr as one transaction: a root span
// named name on the capi layer from start to end, and one span per
// non-zero stage on the layer that owns it, in round-trip order. buf is
// scratch space for the stage list; Emit returns it for reuse.
func (r *Record) Emit(tr trace.Tracer, name string, buf []trace.Stage) []trace.Stage {
	buf = buf[:0]
	for s, d := range r.durs {
		if d > 0 {
			buf = append(buf, trace.Stage{Layer: stageLayer[s], Name: stageNames[s], Dur: d})
		}
	}
	tr.Txn(trace.LayerCAPI, name, r.start, r.end, buf)
	return buf
}

// Duration returns the stage's accumulated duration in picoseconds.
func (r *Record) Duration(s Stage) int64 { return r.durs[s] }

// Elapsed returns end-to-end picoseconds for a finished record.
func (r *Record) Elapsed() int64 { return r.end - r.start }

// stageSet is one aggregation bucket: per-stage histograms plus the
// end-to-end distribution, all in nanoseconds.
type stageSet struct {
	total  *metrics.Histogram
	stages [NumStages]*metrics.Histogram
}

func newStageSet() *stageSet {
	ss := &stageSet{total: metrics.NewHistogram()}
	for i := range ss.stages {
		ss.stages[i] = metrics.NewHistogram()
	}
	return ss
}

func (ss *stageSet) observe(r *Record) {
	const ns = 1000.0 // picoseconds per nanosecond
	for i, d := range r.durs {
		ss.stages[i].Observe(float64(d) / ns)
	}
	ss.total.Observe(float64(r.end-r.start) / ns)
}

// Sink aggregates finished records into per-stage and per-flow histograms.
// It is safe for concurrent use: the simulation observes from its kernel
// goroutine while the control plane snapshots from HTTP handlers.
type Sink struct {
	mu      sync.Mutex
	overall *stageSet
	flows   map[uint16]*stageSet
	skewed  int64
}

// NewSink returns an empty sink.
func NewSink() *Sink {
	return &Sink{overall: newStageSet(), flows: make(map[uint16]*stageSet)}
}

// Done folds a finished record into the aggregates. Records of
// transactions that fault, are abandoned by a fenced link, or never
// complete are simply never passed to Done.
func (s *Sink) Done(r *Record) {
	ok := r.tiles()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.skewed++
	}
	s.overall.observe(r)
	fs, exists := s.flows[r.Flow]
	if !exists {
		fs = newStageSet()
		s.flows[r.Flow] = fs
	}
	fs.observe(r)
}

// Count returns the number of completed records observed.
func (s *Sink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overall.total.Count()
}

// StageSummary quantifies one stage's contribution to the round trip. All
// values are nanoseconds of virtual time.
type StageSummary struct {
	Stage    string  `json:"stage"`
	Count    int64   `json:"count"`
	MeanNS   float64 `json:"mean_ns"`
	P50NS    float64 `json:"p50_ns"`
	P99NS    float64 `json:"p99_ns"`
	P999NS   float64 `json:"p999_ns"`
	MaxNS    float64 `json:"max_ns"`
	TotalNS  float64 `json:"total_ns"`
	SharePct float64 `json:"share_pct"` // of summed end-to-end time
}

// Breakdown is a point-in-time decomposition of the observed round trips.
type Breakdown struct {
	Count  int64          `json:"count"`
	Stages []StageSummary `json:"stages"`
	// EndToEnd summarizes the measured end-to-end distribution.
	EndToEnd StageSummary `json:"end_to_end"`
	// StageSumMeanNS is the sum of per-stage means; it reconciles with
	// EndToEnd.MeanNS when attribution tiles the round trip (ReconcileErrPct
	// reports the relative gap).
	StageSumMeanNS  float64 `json:"stage_sum_mean_ns"`
	ReconcileErrPct float64 `json:"reconcile_err_pct"`
	// CrossingsMeanNS sums the mean of the fixed crossing stages — the
	// measured counterpart of the paper's ~950 ns flit RTT budget.
	CrossingsMeanNS float64 `json:"crossings_mean_ns"`
	// Skewed counts records whose stage sum failed to tile the round trip
	// exactly (always 0 unless an instrumentation site is missing).
	Skewed int64 `json:"skewed"`
}

func summarize(name string, h *metrics.Histogram, totalNS float64) StageSummary {
	sum := h.Sum()
	var share float64
	if totalNS > 0 {
		share = 100 * sum / totalNS
	}
	return StageSummary{
		Stage:    name,
		Count:    h.Count(),
		MeanNS:   h.Mean(),
		P50NS:    h.Quantile(0.5),
		P99NS:    h.Quantile(0.99),
		P999NS:   h.Quantile(0.999),
		MaxNS:    h.Max(),
		TotalNS:  sum,
		SharePct: share,
	}
}

func (ss *stageSet) breakdown(skewed int64) Breakdown {
	b := Breakdown{Count: ss.total.Count(), Skewed: skewed}
	totalNS := ss.total.Sum()
	b.EndToEnd = summarize("end_to_end", ss.total, totalNS)
	for i, h := range ss.stages {
		sum := summarize(Stage(i).String(), h, totalNS)
		b.Stages = append(b.Stages, sum)
		b.StageSumMeanNS += sum.MeanNS
		if crossing[i] {
			b.CrossingsMeanNS += sum.MeanNS
		}
	}
	if b.EndToEnd.MeanNS > 0 {
		err := b.StageSumMeanNS - b.EndToEnd.MeanNS
		if err < 0 {
			err = -err
		}
		b.ReconcileErrPct = 100 * err / b.EndToEnd.MeanNS
	}
	return b
}

// Snapshot returns the overall breakdown across every flow.
func (s *Sink) Snapshot() Breakdown {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overall.breakdown(s.skewed)
}

// FlowSnapshot returns the breakdown of one flow (network identifier).
func (s *Sink) FlowSnapshot(flow uint16) (Breakdown, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, ok := s.flows[flow]
	if !ok {
		return Breakdown{}, false
	}
	return fs.breakdown(0), true
}

// FlowIDs returns the flows observed so far in ascending order.
func (s *Sink) FlowIDs() []uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint16, 0, len(s.flows))
	for id := range s.flows {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StageSummaryFor returns the named stage's overall summary — the adapter
// metrics.Registry histogram functions use.
func (s *Sink) StageSummaryFor(st Stage) metrics.HistogramSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overall.stages[st].Summary()
}

// EndToEndSummary returns the overall end-to-end summary.
func (s *Sink) EndToEndSummary() metrics.HistogramSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overall.total.Summary()
}
