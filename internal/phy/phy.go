// Package phy models the physical network layer of the ThymesisFlow
// prototype (Section V): GTY transceivers at 25 Gbit/s, bonded in groups of
// four to form 100 Gbit/s network-facing channels, with serDES crossing
// latencies and optional frame corruption/loss injection used to exercise
// the LLC replay protocol.
//
// The prototype's Aurora-based network pipelines are point-to-point over
// direct-attached copper; a Channel here is likewise a unidirectional
// point-to-point medium. Bidirectional links pair two Channels.
package phy

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"thymesisflow/internal/sim"
	"thymesisflow/internal/trace"
)

// LaneGbps is the line rate of one GTY transceiver lane.
const LaneGbps = 25.0

// LanesPerChannel is the datalink-layer bonding factor of the prototype:
// four lanes per network-facing channel (4 x 25 = 100 Gbit/s).
const LanesPerChannel = 4

// GiB is 2^30 bytes, the unit the paper reports bandwidth in.
const GiB = 1 << 30

// ChannelBytesPerSec is the theoretical maximum of one channel. The paper
// plots this as "ThymesisFlow theoretical maximum (12.5 GiB/s)".
const ChannelBytesPerSec = 12.5 * GiB

// SerdesCrossing is the latency of one serDES crossing. The prototype's
// ~950 ns flit RTT comprises four FPGA-stack crossings and six serDES
// crossings (Section V); see FPGAStackCrossing.
const SerdesCrossing = 50 * sim.Nanosecond

// FPGAStackCrossing is the latency of one crossing of the OpenCAPI FPGA
// stack. 4*162.5ns + 6*50ns = 950 ns, the published datapath flit RTT.
const FPGAStackCrossing = sim.Time(162.5 * float64(sim.Nanosecond))

// FaultConfig controls error injection on a channel.
type FaultConfig struct {
	// CorruptProb is the probability that a delivered frame arrives with a
	// CRC error (triggering an LLC replay).
	CorruptProb float64
	// DropProb is the probability that a frame is lost entirely (triggering
	// a sequence-gap replay at the receiver).
	DropProb float64
	// Seed seeds the channel's private PRNG. The PRNG is built on the
	// first draw, so a fault-free channel never pays for it.
	Seed int64
}

// Window activates a fault regime during [From, To) of virtual time. Outside
// every window the schedule's base configuration applies. Windows model
// transient events — CRC bursts from a marginal transceiver, link flaps
// (DropProb 1 for the flap duration), or stepped loss sweeps.
type Window struct {
	From, To    sim.Time
	CorruptProb float64
	DropProb    float64
}

// FaultSchedule lays time-windowed fault regimes over a base configuration.
// The schedule is evaluated at each frame's transmit instant, so campaigns
// can script "clean -> burst -> clean -> flap" timelines on a live channel
// without touching it mid-run. The channel's PRNG is seeded from Base.Seed
// on the first draw after the schedule is installed; window boundaries
// change probabilities, never the random stream, which keeps a scheduled
// run reproducible from its seed alone.
type FaultSchedule struct {
	Base    FaultConfig
	Windows []Window
}

// At returns the fault regime in force at virtual time t. Overlapping
// windows resolve to the first match in slice order.
func (s FaultSchedule) At(t sim.Time) FaultConfig {
	for _, w := range s.Windows {
		if t >= w.From && t < w.To {
			return FaultConfig{CorruptProb: w.CorruptProb, DropProb: w.DropProb, Seed: s.Base.Seed}
		}
	}
	return s.Base
}

// Delivery describes one frame arriving at the far end of a channel.
type Delivery struct {
	// Payload is handed on as it was transmitted. A channel (or a fabric
	// switch forwarding it) delivers each transmission at most once and
	// never reads the payload, which the LLC relies on to reuse its wire
	// arrays.
	Payload   any
	Bytes     int
	Corrupted bool
	// Aux rides along with the frame for sender-side metadata the receiver
	// cannot decode from the payload bytes (the LLC carries
	// latency-attribution records here, on split and same-kernel links
	// alike). Nil when the sender attached none.
	Aux any
}

// Injector carries a delivery across a kernel boundary: the shard runtime's
// Conduit[Delivery] implements it. Send stages d for delivery at absolute
// virtual time `at` on the receiving kernel, ordered as if both ends shared
// one kernel; the injector hands it to the channel's Deliver there.
type Injector interface {
	Send(at sim.Time, d Delivery)
}

// Channel is a unidirectional, serialized transmission medium running at
// the bonded-lane rate. Frames are delivered in transmission order after
// serialization plus crossing latency. Lost frames are simply never
// delivered (the receiver detects the sequence gap).
type Channel struct {
	k        *sim.Kernel
	name     string
	pipe     *sim.Pipe
	lanes    int
	oneWay   sim.Time
	faults   FaultConfig
	schedule *FaultSchedule
	rng      *rand.Rand // nil until the first fault draw; see draw
	deliver  func(Delivery)
	remote   Injector // non-nil when the receiver lives on another kernel

	// inflight holds same-kernel deliveries in transmit order; built on
	// the first one. Every delivery is due at its serialization end plus
	// the fixed crossing, and serialization ends never decrease, so
	// deliveries fire in the order they were sent.
	inflight *sim.Lane[Delivery]

	// Counters are atomic: the simulation mutates them from the kernel
	// goroutine while traced/parallel runs may snapshot Stats concurrently
	// from a metrics scrape on another goroutine.
	sent      atomic.Int64
	dropped   atomic.Int64
	corrupted atomic.Int64
}

// NewChannel creates a channel with the given number of bonded lanes. The
// one-way latency covers the serDES crossings the frame experiences on this
// hop (transmit + receive side).
func NewChannel(k *sim.Kernel, name string, lanes int, oneWay sim.Time, faults FaultConfig) *Channel {
	if lanes <= 0 {
		lanes = LanesPerChannel
	}
	rate := float64(lanes) / LanesPerChannel * ChannelBytesPerSec
	return &Channel{
		k:      k,
		name:   name,
		pipe:   sim.NewPipe(k, rate),
		lanes:  lanes,
		oneWay: oneWay,
		faults: faults,
	}
}

// Name returns the channel name.
func (c *Channel) Name() string { return c.name }

// Rate returns the channel's line rate in bytes/sec.
func (c *Channel) Rate() float64 { return c.pipe.Rate() }

// Pipe exposes the serialization pipe (shared with the analytic bulk model
// so both transaction-level and bulk traffic contend for the same capacity).
func (c *Channel) Pipe() *sim.Pipe { return c.pipe }

// CrossingPS returns the crossing latency in picoseconds — the flight
// portion the latency-attribution layer splits out of a frame's wire time
// (the remainder is serialization and queueing).
func (c *Channel) CrossingPS() int64 { return int64(c.oneWay) }

// OnDeliver installs the receive handler (the far end's LLC Rx).
func (c *Channel) OnDeliver(fn func(Delivery)) { c.deliver = fn }

// Deliver hands d to the receive handler: a frame arriving at the far end.
// On a shard boundary the injector calls it on the receiving kernel.
func (c *Channel) Deliver(d Delivery) { c.deliver(d) }

// SetRemote marks the channel as a shard boundary: deliveries are handed to
// the injector (which must route to the receiver's kernel and call Deliver
// there) instead of being scheduled locally. The channel's own kernel must
// be the transmit side's.
func (c *Channel) SetRemote(inj Injector) { c.remote = inj }

// Transmit serializes a frame of n bytes onto the channel and schedules its
// delivery. Error injection may corrupt or drop it.
func (c *Channel) Transmit(payload any, n int) {
	c.TransmitAux(payload, n, nil)
}

// TransmitAux is Transmit with sender-side metadata attached to the
// delivery (see Delivery.Aux).
func (c *Channel) TransmitAux(payload any, n int, aux any) {
	c.Forward(Delivery{Payload: payload, Bytes: n, Aux: aux})
}

// Forward transmits a delivery that arrived on another hop (a switch
// forwarding a frame). A frame that arrived corrupted stays corrupted:
// this hop's fault draws can add corruption but never clear it.
func (c *Channel) Forward(d Delivery) {
	if c.deliver == nil {
		panic(fmt.Sprintf("phy: channel %s has no receiver", c.name))
	}
	c.sent.Add(1)
	faults := c.faults
	if c.schedule != nil {
		faults = c.schedule.At(c.k.Now())
	}
	_, done := c.pipe.Reserve(int64(d.Bytes))
	tr := c.k.Tracer()
	if faults.DropProb > 0 && c.draw() < faults.DropProb {
		c.dropped.Add(1)
		if tr != nil {
			tr.Instant(trace.LayerPhy, "drop", c.k.NowPS())
		}
		return
	}
	if faults.CorruptProb > 0 && c.draw() < faults.CorruptProb {
		d.Corrupted = true
		c.corrupted.Add(1)
		if tr != nil {
			tr.Instant(trace.LayerPhy, "corrupt", c.k.NowPS())
		}
	}
	if tr != nil {
		// The frame's time on the wire: serialization queueing plus the
		// crossing latency, ending at the delivery instant.
		tr.Span(trace.LayerPhy, "xmit", c.k.NowPS(), int64(done+c.oneWay))
	}
	if c.remote != nil {
		c.remote.Send(done+c.oneWay, d)
		return
	}
	if c.inflight == nil {
		c.inflight = sim.NewLane(c.k, c.Deliver)
	}
	c.inflight.ScheduleAt(done+c.oneWay, d)
}

// draw returns the next fault draw, seeding the PRNG from c.faults.Seed on
// the first draw since construction or the last SetFaults/SetSchedule.
// c.faults changes only at those points, so the stream depends on the
// seed and the draws since the reset, never on when the first draw came.
func (c *Channel) draw() float64 {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.faults.Seed))
	}
	return c.rng.Float64()
}

// Stats reports frames sent, dropped, and corrupted since creation. The
// counters are read atomically, so a metrics scrape may snapshot a
// channel while its simulation goroutine is still transmitting.
func (c *Channel) Stats() (sent, dropped, corrupted int64) {
	return c.sent.Load(), c.dropped.Load(), c.corrupted.Load()
}

// SetFaults replaces the fault configuration (used by ablation benches to
// sweep loss rates mid-run). It clears any installed schedule and resets
// the PRNG: the first draw after the call is seeded from f.Seed.
func (c *Channel) SetFaults(f FaultConfig) {
	c.faults = f
	c.schedule = nil
	c.rng = nil
}

// SetSchedule installs a time-windowed fault schedule, replacing the static
// configuration. It resets the PRNG, and the first draw after the call is
// seeded from the schedule's base seed, so a campaign is reproducible
// regardless of traffic sent before installation.
func (c *Channel) SetSchedule(s FaultSchedule) {
	c.schedule = &s
	c.faults = s.Base
	c.rng = nil
}

// Link is a bidirectional point-to-point connection: one channel per
// direction.
type Link struct {
	AtoB *Channel
	BtoA *Channel
}

// NewLink builds a bidirectional link from two symmetric channels.
func NewLink(k *sim.Kernel, name string, lanes int, oneWay sim.Time, faults FaultConfig) *Link {
	return NewLinkSplit(k, k, name, lanes, oneWay, faults)
}

// NewLinkSplit builds a link whose two ends live on different kernels: the
// A-side transmit channel (AtoB) runs on kA, the B-side transmit channel
// (BtoA) on kB. Each channel's clock, serialization pipe, fault PRNG, and
// tracer belong to its transmit side, so seeded fault streams are drawn in
// local transmit order exactly as on a shared kernel. Callers must install
// an Injector (SetRemote) on both channels before traffic flows, or
// deliveries would be scheduled on the transmitter's kernel. With kA == kB
// this is NewLink.
func NewLinkSplit(kA, kB *sim.Kernel, name string, lanes int, oneWay sim.Time, faults FaultConfig) *Link {
	f2 := faults
	f2.Seed = faults.Seed + 1
	return &Link{
		AtoB: NewChannel(kA, name+".fwd", lanes, oneWay, faults),
		BtoA: NewChannel(kB, name+".rev", lanes, oneWay, f2),
	}
}
