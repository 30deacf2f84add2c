// Package endpoint implements the two ThymesisFlow endpoint roles
// (Section IV-A): the compute endpoint, which introduces remote memory into
// a host's real address space (OpenCAPI M1 mode), and the memory-stealing
// endpoint, which exposes pinned donor memory to the network (OpenCAPI C1
// mode). It also provides RemoteBackend, the mem.Backend adapter that lets
// disaggregated NUMA nodes price accesses through the same channel pipes the
// transaction datapath uses.
package endpoint

import (
	"fmt"
	"sort"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/llc"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/rmmu"
	"thymesisflow/internal/route"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/trace"
)

// C1BytesPerSec is the sustainable bandwidth of the OpenCAPI C1 interface
// with 128-byte transactions (~16 GiB/s; Section VI-C: 256-byte bursts
// would reach 20 GiB/s, but POWER9 only issues 128-byte cachelines).
const C1BytesPerSec = 16 * phy.GiB

// SideLatency is the one-way latency added by one endpoint's attachment
// hardware: one serDES crossing plus one FPGA-stack crossing. Two endpoint
// sides, both directions, plus the network serDES on each direction
// reconstruct the paper's 950 ns flit RTT.
const SideLatency = phy.SerdesCrossing + phy.FPGAStackCrossing

// ComputeEndpoint is the recipient-side device: it receives cacheline
// transactions from the host bus (M1 mode), translates them through its
// RMMU, and forwards them via the routing layer. Responses arriving on any
// attached port complete the matching outstanding request.
type ComputeEndpoint struct {
	k      *sim.Kernel
	name   string
	rmmu   *rmmu.RMMU
	router *route.Router

	nextTag uint32
	waiting map[uint32]*pendingReq
	// free recycles completed requests together with their signals.
	free []*pendingReq
	// egress is the lane of responses crossing the compute-side
	// attachment hardware. Each crossing takes SideLatency, so they
	// complete in arrival order.
	egress *sim.Lane[completion]

	// linkDown fences the issue path after LLC escalation or forced detach.
	linkDown bool

	// lat, when set, enables per-stage latency attribution: every issued
	// transaction carries a latency.Record that the layers below stamp.
	// A tracer on the kernel starts records too, to emit their spans.
	lat *latency.Sink
	// spans is the reused stage list of Record.Emit.
	spans []trace.Stage

	loads   int64
	stores  int64
	faulted int64
}

type pendingReq struct {
	sig  *sim.Signal
	resp *capi.Transaction
	err  error
}

// completion is a response on its way to the request that waits for it.
type completion struct {
	w    *pendingReq
	resp *capi.Transaction
}

// ErrLinkDown is the error outstanding and subsequent requests complete with
// after the endpoint's link has been fenced (LLC escalation or forced
// detach). Callers distinguish it from RMMU translation faults to decide
// between retrying elsewhere and reporting a wild access.
var ErrLinkDown = fmt.Errorf("endpoint: link down")

// NewCompute builds a compute endpoint with the given RMMU geometry.
func NewCompute(k *sim.Kernel, name string, sections int, sectionSize int64) (*ComputeEndpoint, error) {
	m, err := rmmu.New(sections, sectionSize)
	if err != nil {
		return nil, err
	}
	ce := &ComputeEndpoint{
		k:       k,
		name:    name,
		rmmu:    m,
		router:  route.NewRouter(name + ".router"),
		waiting: make(map[uint32]*pendingReq),
	}
	ce.egress = sim.NewLane(k, func(c completion) {
		c.w.resp = c.resp
		c.w.sig.Broadcast()
	})
	return ce, nil
}

// Name returns the endpoint name.
func (ce *ComputeEndpoint) Name() string { return ce.name }

// RMMU exposes the endpoint's section table for configuration by the node
// agent.
func (ce *ComputeEndpoint) RMMU() *rmmu.RMMU { return ce.rmmu }

// Router exposes the routing layer for flow configuration.
func (ce *ComputeEndpoint) Router() *route.Router { return ce.router }

// SetLatencySink enables per-stage latency attribution: subsequent issues
// carry a record through every layer and fold into the sink on completion.
// A nil sink disables attribution (the zero-overhead default).
func (ce *ComputeEndpoint) SetLatencySink(s *latency.Sink) { ce.lat = s }

// AttachPort registers an LLC port whose inbound traffic carries responses
// for this endpoint.
func (ce *ComputeEndpoint) AttachPort(p *llc.Port) {
	p.OnReceive = ce.handleResponse
}

func (ce *ComputeEndpoint) handleResponse(t *capi.Transaction) {
	if !t.IsResponse() {
		panic(fmt.Sprintf("endpoint: %s: request opcode %v on compute endpoint", ce.name, t.Op))
	}
	w, ok := ce.waiting[t.Tag]
	if !ok {
		return // response for a cancelled/unknown tag
	}
	delete(ce.waiting, t.Tag)
	// Egress through the compute-side attachment hardware before the CPU
	// sees the data.
	ce.egress.Schedule(SideLatency, completion{w: w, resp: t})
}

// newReq takes a request record from the free list, or builds one.
func (ce *ComputeEndpoint) newReq() *pendingReq {
	if n := len(ce.free); n > 0 {
		w := ce.free[n-1]
		ce.free = ce.free[:n-1]
		return w
	}
	return &pendingReq{sig: sim.NewSignal(ce.k)}
}

// freeReq recycles a request record once its issuer has read it. By then
// no table or queue refers to it: it left waiting when it was answered or
// faulted, or when its forward failed.
func (ce *ComputeEndpoint) freeReq(w *pendingReq) {
	*w = pendingReq{sig: w.sig}
	ce.free = append(ce.free, w)
}

// Outstanding returns the number of requests issued but not yet completed.
// Detach-under-load drains an attachment by polling this in virtual time.
func (ce *ComputeEndpoint) Outstanding() int { return len(ce.waiting) }

// SetLinkDown marks the endpoint's datapath as fenced: every subsequent
// issue fails fast with ErrLinkDown instead of translating and forwarding
// into a dead link.
func (ce *ComputeEndpoint) SetLinkDown() { ce.linkDown = true }

// FaultOutstanding completes every outstanding request with err, waking its
// blocked issuer. Tags are faulted in sorted order so the wake-up sequence —
// and therefore the downstream event order — is deterministic regardless of
// map iteration order. Used by link-down escalation and forced detach.
func (ce *ComputeEndpoint) FaultOutstanding(err error) int {
	if len(ce.waiting) == 0 {
		return 0
	}
	tags := make([]uint32, 0, len(ce.waiting))
	for tag := range ce.waiting {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	for _, tag := range tags {
		w := ce.waiting[tag]
		delete(ce.waiting, tag)
		w.err = err
		w.sig.Broadcast()
	}
	ce.faulted += int64(len(tags))
	return len(tags)
}

// issue translates and forwards one request, then blocks the calling
// process until the response arrives. It returns the response transaction.
func (ce *ComputeEndpoint) issue(p *sim.Proc, t *capi.Transaction) (*capi.Transaction, error) {
	if ce.linkDown {
		return nil, ErrLinkDown
	}
	tr := ce.k.Tracer()
	if ce.lat != nil || tr != nil {
		// Attribution records are allocated per transaction on purpose: a
		// faulted issue can return while a late response still references
		// the record, so recycling would corrupt a live one. Only the
		// disabled path must be allocation-free.
		t.Lat = latency.NewRecord(ce.k.NowPS())
	}
	if err := ce.rmmu.Translate(t); err != nil {
		if tr != nil {
			tr.Instant(trace.LayerRMMU, "translate_fault", ce.k.NowPS())
		}
		return nil, err
	}
	if t.Lat != nil {
		// The section lookup is combinational in the prototype FPGA — it
		// adds no virtual time — but the stamp closes the translate stage
		// so any future pipelined-RMMU model is attributed automatically.
		t.Lat.MarkTo(latency.StageTranslate, ce.k.NowPS())
		t.Lat.Flow = t.NetworkID
	}
	ce.nextTag++
	t.Tag = ce.nextTag
	w := ce.newReq()
	ce.waiting[t.Tag] = w
	// Ingress through the compute-side attachment hardware.
	p.Sleep(SideLatency)
	if w.err != nil {
		// Faulted during the crossing: FaultOutstanding already dropped
		// the tag and found no waiter to wake, so forwarding now would
		// wait for a response nobody delivers.
		err := w.err
		ce.freeReq(w)
		return nil, err
	}
	if t.Lat != nil {
		t.Lat.MarkTo(latency.StageCapiCross, ce.k.NowPS())
	}
	if err := ce.router.ForwardFrom(p, t); err != nil {
		delete(ce.waiting, t.Tag)
		ce.freeReq(w)
		return nil, err
	}
	w.sig.Wait(p)
	resp, err := w.resp, w.err
	ce.freeReq(w)
	if err != nil {
		return nil, err
	}
	// The response record is the one issued above when the round trip
	// stayed on a paired link; topologies that cannot carry the record
	// end-to-end deliver a bare response, which is simply not attributed.
	if rec := resp.Lat; rec != nil {
		resp.Lat = nil
		rec.Finish(ce.k.NowPS())
		if ce.lat != nil {
			ce.lat.Done(rec)
		}
		if tr := ce.k.Tracer(); tr != nil {
			ce.spans = rec.Emit(tr, t.Op.String(), ce.spans)
		}
	}
	return resp, nil
}

// Load reads size bytes at the device-internal address, returning the data
// stored at the donor (nil when the donor region carries no backing store).
func (ce *ComputeEndpoint) Load(p *sim.Proc, deviceAddr uint64, size int32) ([]byte, error) {
	t := &capi.Transaction{Op: capi.OpReadReq, Addr: deviceAddr, Size: size}
	resp, err := ce.issue(p, t)
	if err != nil {
		return nil, err
	}
	ce.loads++
	return resp.Data, nil
}

// Store writes data at the device-internal address.
func (ce *ComputeEndpoint) Store(p *sim.Proc, deviceAddr uint64, data []byte) error {
	t := &capi.Transaction{Op: capi.OpWriteReq, Addr: deviceAddr, Size: int32(len(data)), Data: data}
	if _, err := ce.issue(p, t); err != nil {
		return err
	}
	ce.stores++
	return nil
}

// Stats returns completed (loads, stores).
func (ce *ComputeEndpoint) Stats() (loads, stores int64) { return ce.loads, ce.stores }

// Faulted returns the number of outstanding requests completed with an error
// by FaultOutstanding since creation.
func (ce *ComputeEndpoint) Faulted() int64 { return ce.faulted }
