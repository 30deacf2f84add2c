package endpoint

import (
	"fmt"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/llc"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/trace"
)

// StolenRegion is a pinned, cacheline-aligned span of donor memory exposed
// to a remote compute endpoint. Base is the donor-side effective address the
// RMMU offset points at. When backed (Data non-nil) the region carries real
// bytes so end-to-end functional tests can verify data integrity through the
// whole translation pipeline.
type StolenRegion struct {
	PASID uint32
	Base  uint64
	Size  int64
	Data  []byte
}

// contains reports whether [addr, addr+size) lies inside the region.
func (r *StolenRegion) contains(addr uint64, size int32) bool {
	return addr >= r.Base && addr+uint64(size) <= r.Base+uint64(r.Size)
}

// MemoryEndpoint is the donor-side device (C1 mode): it masters transactions
// into the donor's memory on behalf of remote compute endpoints. The
// endpoint is passive — it performs no translation and no routing; responses
// leave on the channel the request arrived from, carrying the network
// identifiers already present in the request header (Section IV-A2).
type MemoryEndpoint struct {
	k      *sim.Kernel
	name   string
	pasids *capi.PASIDRegistry

	regions []*StolenRegion
	c1      *sim.Pipe // 128B-transaction C1 ceiling (~16 GiB/s)
	dramLat sim.Time  // donor DRAM access latency behind the C1 master

	// service and egress are the lanes of requests in the C1 master and
	// in the memory-side egress hardware. Both stages fire in arrival
	// order: a request leaves service at its C1 reservation's end plus the
	// fixed DRAM latency, and C1 reservations end in the order they are
	// made; egress is a fixed SideLatency.
	service, egress *sim.Lane[c1Access]

	served   int64
	rejected int64
}

// c1Access is one request in the donor's C1 pipeline; the decoded request
// becomes its own response in place when service completes.
type c1Access struct {
	port *llc.Port
	t    *capi.Transaction
	reg  *StolenRegion
}

// NewMemory builds a memory-stealing endpoint. dramLat is the donor DRAM
// latency the C1 master experiences per access.
func NewMemory(k *sim.Kernel, name string, dramLat sim.Time) *MemoryEndpoint {
	me := &MemoryEndpoint{
		k:       k,
		name:    name,
		pasids:  capi.NewPASIDRegistry(),
		c1:      sim.NewPipe(k, C1BytesPerSec),
		dramLat: dramLat,
	}
	me.service = sim.NewLane(k, me.serve)
	me.egress = sim.NewLane(k, me.respond)
	return me
}

// Name returns the endpoint name.
func (me *MemoryEndpoint) Name() string { return me.name }

// C1Pipe exposes the C1 bandwidth pipe (shared with RemoteBackend so
// analytic and transaction-level traffic contend for the same ceiling).
func (me *MemoryEndpoint) C1Pipe() *sim.Pipe { return me.c1 }

// Steal pins size bytes of donor memory at the given donor effective
// address on behalf of process, registering its PASID with the endpoint
// hardware. With backing=true the region carries a real byte store.
func (me *MemoryEndpoint) Steal(process string, base uint64, size int64, backing bool) (*StolenRegion, error) {
	if size <= 0 || size%capi.Cacheline != 0 {
		return nil, fmt.Errorf("endpoint: steal size %d not cacheline aligned", size)
	}
	if base%capi.Cacheline != 0 {
		return nil, fmt.Errorf("endpoint: steal base %#x not cacheline aligned", base)
	}
	for _, r := range me.regions {
		if base < r.Base+uint64(r.Size) && r.Base < base+uint64(size) {
			return nil, fmt.Errorf("endpoint: steal [%#x,+%d) overlaps existing region", base, size)
		}
	}
	reg := &StolenRegion{
		PASID: me.pasids.Register(process),
		Base:  base,
		Size:  size,
	}
	if backing {
		reg.Data = make([]byte, size)
	}
	me.regions = append(me.regions, reg)
	return reg, nil
}

// Release unpins a stolen region and unregisters its PASID.
func (me *MemoryEndpoint) Release(reg *StolenRegion) error {
	for i, r := range me.regions {
		if r == reg {
			me.regions = append(me.regions[:i], me.regions[i+1:]...)
			me.pasids.Unregister(reg.PASID)
			return nil
		}
	}
	return fmt.Errorf("endpoint: release of unknown region")
}

// Regions returns the active stolen regions.
func (me *MemoryEndpoint) Regions() []*StolenRegion { return me.regions }

// AttachPort wires an LLC port's inbound traffic into this endpoint. The
// response is sent back on the same port.
func (me *MemoryEndpoint) AttachPort(p *llc.Port) {
	p.OnReceive = func(t *capi.Transaction) { me.handleRequest(p, t) }
}

func (me *MemoryEndpoint) handleRequest(port *llc.Port, t *capi.Transaction) {
	if t.IsResponse() {
		panic(fmt.Sprintf("endpoint: %s: response opcode %v on memory endpoint", me.name, t.Op))
	}
	reg := me.regionFor(t.Addr, t.Size)
	if reg == nil {
		// Illegal destination: the control plane never configures flows to
		// unpinned memory, so fail the transaction (Section IV-C).
		me.rejected++
		if tr := me.k.Tracer(); tr != nil {
			tr.Instant(trace.LayerCAPI, "c1_reject", me.k.NowPS())
		}
		return
	}
	// Price the access: memory-side attachment ingress, the C1 master's
	// bandwidth ceiling, and donor DRAM.
	_, c1done := me.c1.Reserve(int64(t.Size))
	delay := SideLatency + (c1done - me.k.Now()) + me.dramLat
	if t.Lat != nil {
		// The whole donor-side delay is scheduled as one composite event, so
		// attribute its components by known duration rather than by stamp.
		t.Lat.Add(latency.StageC1Ingress, int64(SideLatency))
		t.Lat.Add(latency.StageC1Service, int64((c1done-me.k.Now())+me.dramLat))
	}
	me.service.Schedule(delay, c1Access{port: port, t: t, reg: reg})
}

// serve completes a request's donor memory access and turns it into its
// response.
func (me *MemoryEndpoint) serve(a c1Access) {
	t, reg := a.t, a.reg
	var data []byte
	if t.Op == capi.OpReadReq && reg.Data != nil {
		off := t.Addr - reg.Base
		data = append([]byte(nil), reg.Data[off:off+uint64(t.Size)]...)
	}
	if t.Op == capi.OpWriteReq && reg.Data != nil && t.Data != nil {
		off := t.Addr - reg.Base
		copy(reg.Data[off:], t.Data)
	}
	t.Respond(data)
	me.served++
	// Egress through the memory-side attachment hardware, then out on the
	// arrival channel.
	me.egress.Schedule(SideLatency, a)
}

// respond sends a response out on the port its request came from.
func (me *MemoryEndpoint) respond(a c1Access) {
	if a.t.Lat != nil {
		a.t.Lat.Add(latency.StageC1Egress, int64(SideLatency))
	}
	a.port.Send(a.t)
}

func (me *MemoryEndpoint) regionFor(addr uint64, size int32) *StolenRegion {
	for _, r := range me.regions {
		if r.contains(addr, size) {
			return r
		}
	}
	return nil
}

// Stats returns (served, rejected) transaction counts.
func (me *MemoryEndpoint) Stats() (served, rejected int64) { return me.served, me.rejected }
