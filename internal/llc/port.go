package llc

import (
	"fmt"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/trace"
)

// Config tunes a Port's protocol parameters.
type Config struct {
	// Credits is the Rx ingress queue depth in transaction slots. The
	// paper notes the depth is "carefully calculated to avoid credit
	// starvation at the Tx side"; 256 slots cover the bandwidth-delay
	// product of a 12.5 GiB/s channel at ~1 us RTT with margin.
	// It also bounds the replay window: every unacknowledged data frame
	// holds at least one unreturned credit, so at most Credits frames are
	// ever retained for replay.
	Credits int
	// ReplayTimeout re-requests a replay if an expected frame has not
	// arrived (covers the case where the replay request itself is lost).
	ReplayTimeout sim.Time
	// MaxReplayAttempts bounds how long the port fights a dead link: after
	// this many consecutive timeout-driven retransmissions of one frame (Tx
	// side), unanswered replay requests (Rx side), or unanswered credit
	// probes, the port escalates to the link-down state instead of retrying
	// forever. Zero selects the default.
	MaxReplayAttempts int
}

// DefaultMaxReplayAttempts is the escalation threshold substituted for a
// zero Config.MaxReplayAttempts: generous enough that any statistically
// recoverable loss pattern recovers (32 consecutive losses of one frame at
// 10% loss has probability 1e-32), small enough that a dead link is
// declared down in ~32 replay timeouts.
const DefaultMaxReplayAttempts = 32

// DefaultConfig returns the calibrated protocol parameters.
func DefaultConfig() Config {
	return Config{
		Credits:           256,
		ReplayTimeout:     20 * sim.Microsecond,
		MaxReplayAttempts: DefaultMaxReplayAttempts,
	}
}

// Port is one end of an LLC link: it transmits frames on `out`, receives
// deliveries from `in`, and hands received transactions to OnReceive.
// Create both ends with NewPair.
type Port struct {
	k    *sim.Kernel
	name string
	cfg  Config
	out  *phy.Channel
	peer *Port

	// inCrossing caches the inbound channel's crossing latency (the
	// peer's out.CrossingPS()), captured at pair time so the receive path
	// needs no cross-kernel read.
	inCrossing int64

	// OnReceive delivers in-order, CRC-clean transactions to the upper
	// layer (the routing layer / endpoint attachment logic).
	OnReceive func(*capi.Transaction)

	// OnLinkDown, when set, is invoked (as a fresh event) the moment the
	// port escalates to the link-down state. Endpoint logic uses it to fault
	// outstanding transactions deterministically instead of hanging forever.
	OnLinkDown func()

	// Tx state.
	credits     int
	freedSeen   uint64 // highest cumulative slots-freed total seen from the peer
	pending     sim.FIFO[*capi.Transaction]
	flushQueued bool
	nextSeq     uint64
	// kept holds every unacknowledged frame, [oldestKept, nextSeq), in a
	// ring indexed by sequence number modulo its power-of-two length. It
	// grows on demand, up to the credit window, rather than being sized to
	// it up front: a rack builds hundreds of ports that each keep only a few
	// frames in flight.
	kept          []replaySlot
	oldestKept    uint64
	probeTimer    *sim.Event
	probeAttempts int

	// Rx state.
	expected     uint64
	freedTotal   uint64 // cumulative transaction slots freed since creation
	replayAsked  bool
	replayTimer  *sim.Event
	rxStalls     int // consecutive replay timeouts without forward progress
	credQueued   bool
	creditWaiter *sim.Signal

	// t holds what only a port that carries frames needs; bind builds it.
	t *traffic

	// down latches once the port escalates: replay attempts, replay
	// requests, or credit probes exhausted MaxReplayAttempts. A down port
	// stops transmitting and ignores deliveries (the link is fenced).
	down bool

	// replayOpen marks a replay window in progress, opened at replayStart
	// (virtual picoseconds); closing it records one "replay" span.
	replayOpen  bool
	replayStart int64

	// Stats.
	stats Stats
}

// Stats aggregates protocol counters. All fields are cumulative since port
// creation and only ever increase.
type Stats struct {
	TxFrames       int64
	TxControl      int64
	TxReplayed     int64
	RxFrames       int64
	RxCRCErrors    int64
	RxGaps         int64
	RxDuplicates   int64
	TxTransactions int64
	RxTransactions int64
	PaddingFlits   int64
	CreditStalls   int64
	// CreditProbes counts probe control frames sent while credit-starved
	// with pending traffic (the repair path for lost credit returns).
	CreditProbes int64
	// ReplayExhausted counts escalations caused by a frame, replay request,
	// or credit probe exceeding MaxReplayAttempts without progress.
	ReplayExhausted int64
	// ReplayOverflows counts escalations caused by a full replay window
	// (the peer stopped acknowledging entirely).
	ReplayOverflows int64
	// TxAbandoned counts transactions discarded because the port was down.
	TxAbandoned int64
	// LinkDownEvents counts transitions into the link-down state (0 or 1:
	// the state latches).
	LinkDownEvents int64
}

// Stats returns a snapshot of the port's counters: a value copy taken at
// call time that does not track later protocol activity.
func (p *Port) Stats() Stats { return p.stats }

// NewPair wires two ports over a bidirectional phy link and returns
// (a, b): a transmits on link.AtoB and receives from link.BtoA; b is the
// mirror image.
func NewPair(k *sim.Kernel, name string, link *phy.Link, cfg Config) (*Port, *Port) {
	return NewPairOn(k, k, name, link, cfg)
}

// NewPairOn wires a pair whose ends may run on different kernels: a on ka,
// b on kb (a shard boundary when they differ; the link must have been built
// with the matching kernels, phy.NewLinkSplit(ka, kb, ...)). With ka == kb
// this is NewPair. Neither end touches the other's state at event time:
// the transmit side attaches latency-attribution records to the delivery
// itself (Delivery.Aux), and replayed frames carry them again, so a record
// still arrives exactly once, on the frame's single in-order delivery.
func NewPairOn(ka, kb *sim.Kernel, name string, link *phy.Link, cfg Config) (*Port, *Port) {
	a := newPort(ka, name+".a", link.AtoB, cfg)
	b := newPort(kb, name+".b", link.BtoA, cfg)
	a.peer, b.peer = b, a
	a.inCrossing = link.BtoA.CrossingPS()
	b.inCrossing = link.AtoB.CrossingPS()
	link.AtoB.OnDeliver(b.receive)
	link.BtoA.OnDeliver(a.receive)
	return a, b
}

func newPort(k *sim.Kernel, name string, out *phy.Channel, cfg Config) *Port {
	if cfg.Credits <= 0 || cfg.ReplayTimeout <= 0 {
		panic("llc: invalid config")
	}
	if cfg.MaxReplayAttempts <= 0 {
		cfg.MaxReplayAttempts = DefaultMaxReplayAttempts
	}
	return &Port{
		k:            k,
		name:         name,
		cfg:          cfg,
		out:          out,
		credits:      cfg.Credits,
		creditWaiter: sim.NewSignal(k),
	}
}

// traffic is the per-frame state of a port: the recurring callbacks,
// bound once so that scheduling one allocates nothing, the lane of armed
// tail-loss timers, and the arrays that frame packing and decoding reuse.
type traffic struct {
	flush, credit  func()
	txTimers       *sim.Lane[txTimer]
	txTxns, rxTxns []*capi.Transaction
	// frameTime is one data frame's serialization time on the outbound
	// channel: the most wire work flush lets stand ahead of a new frame.
	frameTime sim.Time
}

// bind builds the port's traffic state once. Every event a port schedules
// follows a Send or a delivery, so those two bind on first use, and a port
// that never carries a frame (attach/detach churn builds many) pays
// nothing for it.
func (p *Port) bind() {
	if p.t == nil {
		p.t = &traffic{
			flush:     p.flush,
			credit:    p.sendCreditReturn,
			txTimers:  sim.NewLane(p.k, p.txTimeout),
			frameTime: sim.DurationForBytes(FrameBytes, p.out.Rate()),
		}
	}
}

// replaySlot is one unacknowledged frame: its wire image and the
// attribution records that ride with every copy of it. Pruning a slot
// drops the port's reference to the wire array but never reuses the array
// (see the package doc): copies of it may still be in flight.
type replaySlot struct {
	wire *[FrameBytes]byte
	// aux carries the frame's latency-attribution records, aligned with
	// its transactions, as phy delivery aux data. Frames serialize to
	// bytes, so the receiver's decoded transactions cannot carry the Lat
	// pointer in-band; every copy of the frame carries the records, and
	// the receiver re-attaches them on the frame's single in-order
	// delivery. nil when no transaction carries a record.
	aux any
}

// txTimer is one armed tail-loss timer: the frame it guards and how many
// timeout-driven retransmissions that frame has had.
type txTimer struct {
	seq     uint64
	attempt int
}

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// Credits returns the Tx-side credit count currently available.
func (p *Port) Credits() int { return p.credits }

// Peer returns the other end of the link (nil for unpaired ports).
func (p *Port) Peer() *Port { return p.peer }

// Channel returns the outbound phy channel — campaign engines install fault
// schedules on it.
func (p *Port) Channel() *phy.Channel { return p.out }

// Down reports whether the port has escalated to the link-down state.
func (p *Port) Down() bool { return p.down }

// ReplayDepth returns the number of transmitted frames held in the replay
// buffer awaiting acknowledgement — the flight recorder's gauge of how far
// behind its ack horizon the link is running.
func (p *Port) ReplayDepth() int {
	if p.nextSeq > p.oldestKept {
		return int(p.nextSeq - p.oldestKept)
	}
	return 0
}

// slot returns the replay ring slot of seq.
func (p *Port) slot(seq uint64) *replaySlot {
	return &p.kept[seq&uint64(len(p.kept)-1)]
}

// keep stores the frame about to take sequence number nextSeq, doubling the
// ring first when every slot holds an unacknowledged frame.
func (p *Port) keep(s replaySlot) {
	if p.nextSeq-p.oldestKept >= uint64(len(p.kept)) {
		old := p.kept
		p.kept = make([]replaySlot, max(8, 2*len(old)))
		for seq := p.oldestKept; seq < p.nextSeq; seq++ {
			*p.slot(seq) = old[seq&uint64(len(old)-1)]
		}
	}
	*p.slot(p.nextSeq) = s
}

// Send queues a transaction for transmission. Transactions that wait
// together when a frame is formed share it: those of one event cascade on
// an idle link, and everything that queued while the serializer was busy on
// a loaded one. If the transmitter is out of credits the transaction waits
// (backpressure) — Send itself never blocks the caller; use SendFrom for
// process-context flow control.
func (p *Port) Send(t *capi.Transaction) {
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("llc: %s: sending invalid transaction: %v", p.name, err))
	}
	if p.down {
		p.stats.TxAbandoned++
		return
	}
	p.bind()
	p.pending.Push(t)
	p.scheduleFlush()
}

// SendFrom is like Send but, when the link has a large untransmitted
// backlog, blocks the calling process until credits free up — modelling a
// full Tx queue pushing back into the fabric. If the port escalates to
// link-down while the caller is stalled, the call returns without sending
// (the transaction is abandoned and counted; the endpoint's link-down hook
// is responsible for faulting it).
func (p *Port) SendFrom(proc *sim.Proc, t *capi.Transaction) {
	if p.credits <= 0 && !p.down {
		for p.credits <= 0 && !p.down {
			p.stats.CreditStalls++
			p.creditWaiter.Wait(proc)
		}
		if t.Lat != nil {
			t.Lat.MarkTo(latency.StageCreditStall, p.k.NowPS())
		}
	}
	p.Send(t)
}

func (p *Port) scheduleFlush() {
	if p.flushQueued {
		return
	}
	p.flushQueued = true
	p.k.Schedule(0, p.t.flush)
}

// flush packs pending transactions into frames and transmits as many as
// credits allow, pulling each frame only when the outbound serializer is at
// most one frame time from free: at most one formed frame waits ahead of
// the wire, and transactions that arrive meanwhile queue in pending, where
// they can still share the next frame. When the serializer is busier than
// that, flush re-arms itself for the instant it is not (still at most one
// pending flush per port). A frame formed while nothing else waits is
// padded (accounted as padding flits) and sent rather than held for more
// traffic.
func (p *Port) flush() {
	p.flushQueued = false
	if p.down {
		return
	}
	f := Frame{Kind: kindData, Txns: p.t.txTxns}
	for p.pending.Len() > 0 && p.credits > 0 {
		if wait := p.out.Pipe().Backlog() - p.t.frameTime; wait > 0 {
			p.flushQueued = true
			p.k.Schedule(wait, p.t.flush)
			break
		}
		if p.nextSeq-p.oldestKept >= uint64(p.cfg.Credits) {
			// Replay window full: the peer has stopped acknowledging.
			// Transmitting would force an unacked frame out of the replay
			// window and silently break losslessness — escalate instead.
			// (Unreachable: credits and acks return in the same control
			// frame, so with credits > 0 at most Credits-credits frames are
			// unacknowledged. Kept as a guard.)
			p.stats.ReplayOverflows++
			p.escalateDown()
			return
		}
		f.Seq, f.Txns = p.nextSeq, f.Txns[:0]
		flitsLeft := FrameFlits
		for p.pending.Len() > 0 && p.credits > 0 {
			t := p.pending.Peek()
			fl := t.Flits()
			if fl > flitsLeft {
				break
			}
			f.Txns = append(f.Txns, p.pending.Pop())
			flitsLeft -= fl
			p.credits--
			p.stats.TxTransactions++
			if t.Lat != nil {
				// Queue wait ends when the transaction is packed into a
				// frame; from here until delivery is wire time.
				if t.IsResponse() {
					t.Lat.MarkTo(latency.StageRetQueue, p.k.NowPS())
				} else {
					t.Lat.MarkTo(latency.StageLLCQueue, p.k.NowPS())
				}
			}
		}
		if len(f.Txns) == 0 {
			break // head transaction blocked on credits
		}
		p.stats.PaddingFlits += int64(flitsLeft)
		p.transmitFrame(&f)
		clear(f.Txns) // the reused array must not keep sent transactions alive
	}
	p.t.txTxns = f.Txns
	if p.pending.Len() > 0 && p.credits <= 0 {
		// Starved with pending traffic: if the credit returns were lost there
		// is no data flowing to piggy-back repairs on, so probe explicitly.
		p.armProbeTimer()
	}
}

func (p *Port) transmitFrame(f *Frame) {
	wire := new([FrameBytes]byte)
	f.encodeTo(wire[:])
	s := replaySlot{wire: wire, aux: latRecords(f)}
	p.keep(s)
	p.nextSeq++
	p.stats.TxFrames++
	p.transmitWire(s)
	p.armTxTimer(f.Seq, 0)
}

// transmitWire puts a kept data frame on the channel, its attribution
// records riding along as delivery aux data. The slot itself is kept until
// the peer's CumAck prunes it, so a replayed frame carries the records
// again if the first copy was lost.
func (p *Port) transmitWire(s replaySlot) {
	p.out.TransmitAux(s.wire, FrameBytes, s.aux)
}

// latRecords returns the frame's latency-attribution records, aligned with
// f.Txns and boxed once for every copy of the frame, or nil when no
// transaction carries one.
func latRecords(f *Frame) any {
	var recs []*latency.Record
	for i, t := range f.Txns {
		if t.Lat == nil {
			continue
		}
		if recs == nil {
			recs = make([]*latency.Record, len(f.Txns))
		}
		recs[i] = t.Lat
	}
	if recs == nil {
		return nil
	}
	return recs
}

// armTxTimer covers tail loss: if a frame is still unacknowledged after the
// replay timeout (e.g. it was the last frame of a burst and was dropped, so
// the receiver never saw a sequence gap), retransmit it proactively. After
// MaxReplayAttempts consecutive timeouts for the same frame the port
// declares the link dead and escalates. A frame is formed, and its timer
// armed, within one frame time of its serialization start, so the timeout
// measures the frame's time on the wire and the ack's return, not a queue
// behind the serializer. Every timer has the same delay, so timers fire in
// the order they were armed and wait in one lane.
func (p *Port) armTxTimer(seq uint64, attempt int) {
	p.t.txTimers.Schedule(p.cfg.ReplayTimeout, txTimer{seq: seq, attempt: attempt})
}

func (p *Port) txTimeout(t txTimer) {
	if p.down || p.oldestKept > t.seq {
		return // link fenced, or frame acknowledged
	}
	if t.attempt >= p.cfg.MaxReplayAttempts {
		p.stats.ReplayExhausted++
		p.escalateDown()
		return
	}
	p.stats.TxReplayed++
	p.transmitWire(*p.slot(t.seq))
	p.armTxTimer(t.seq, t.attempt+1)
}

// sendControl emits an in-band single-flit control frame carrying c's
// replay request, probe or caught-up flag. Every control frame also carries
// the receiver's full cumulative state — slots freed since creation
// (CumFreed) and the in-order ack horizon (CumAck) — so control frames are
// idempotent: loss of any one is repaired by the next, and credits are
// conserved under arbitrary control-frame loss. Control frames bypass
// credits and the replay buffer.
func (p *Port) sendControl(c Frame) {
	c.Kind, c.CumFreed, c.CumAck = kindControl, p.freedTotal, p.expected
	wire := new([ControlFrameBytes]byte)
	c.encodeTo(wire[:])
	p.stats.TxControl++
	p.out.Transmit(wire, ControlFrameBytes)
}

// armProbeTimer starts the credit-probe cycle; probes repeat every replay
// timeout while the port stays starved, and escalate once exhausted.
func (p *Port) armProbeTimer() {
	if p.probeTimer != nil || p.down {
		return
	}
	p.probeTimer = p.k.Schedule(p.cfg.ReplayTimeout, p.probeTimeout)
}

func (p *Port) probeTimeout() {
	p.probeTimer = nil
	if p.down || p.credits > 0 || p.pending.Len() == 0 {
		p.probeAttempts = 0
		return
	}
	if p.probeAttempts >= p.cfg.MaxReplayAttempts {
		p.stats.ReplayExhausted++
		p.escalateDown()
		return
	}
	p.probeAttempts++
	p.stats.CreditProbes++
	p.sendControl(Frame{Probe: true})
	p.armProbeTimer()
}

// escalateDown latches the port into the link-down state: recovery has
// exhausted its retry budget, so the link is fenced rather than retried
// forever. A down port stops transmitting, ignores deliveries, releases
// credit-stalled senders (their transactions are abandoned and counted) and
// notifies the upper layer through OnLinkDown so outstanding transactions
// can be faulted deterministically.
func (p *Port) escalateDown() {
	if p.down {
		return
	}
	p.down = true
	p.stats.LinkDownEvents++
	p.cancelReplayTimer()
	if p.probeTimer != nil {
		p.probeTimer.Cancel()
		p.probeTimer = nil
	}
	if tr := p.k.Tracer(); tr != nil {
		tr.Instant(trace.LayerLLC, "link_down", p.k.NowPS())
	}
	p.closeReplayWindow()
	p.stats.TxAbandoned += int64(p.pending.Len())
	p.pending = sim.FIFO[*capi.Transaction]{}
	p.creditWaiter.Broadcast()
	if p.OnLinkDown != nil {
		cb := p.OnLinkDown
		p.k.Schedule(0, cb)
	}
}

// Deliver injects a phy delivery into this port's receive path. NewPair
// installs it on the direct link automatically; switched topologies
// (internal/fabric) re-point the final hop's OnDeliver here.
func (p *Port) Deliver(d phy.Delivery) { p.receive(d) }

// receive handles a phy delivery on the inbound channel.
func (p *Port) receive(d phy.Delivery) {
	if p.down {
		return // fenced: late deliveries are ignored
	}
	p.bind()
	var wire []byte
	switch w := d.Payload.(type) {
	case *[FrameBytes]byte:
		wire = w[:]
	case *[ControlFrameBytes]byte:
		wire = w[:]
	default:
		panic("llc: non-frame payload on channel")
	}
	if d.Corrupted {
		// Emulate line corruption before the CRC check. The wire image is
		// shared with every other copy of the frame, so corrupt a copy.
		wire = append([]byte(nil), wire...)
		wire[0] ^= 0xFF
	}
	f := Frame{Txns: p.t.rxTxns}
	err := f.decode(wire)
	p.t.rxTxns = f.Txns
	if err != nil {
		p.stats.RxCRCErrors++
		if tr := p.k.Tracer(); tr != nil {
			tr.Instant(trace.LayerLLC, "rx_crc_error", p.k.NowPS())
		}
		// CRC error: we cannot trust the header, ask for replay from the
		// next expected frame.
		p.requestReplay()
		return
	}
	switch f.Kind {
	case kindControl:
		p.handleControl(&f)
	case kindData:
		p.handleData(&f, d.Aux)
	}
}

func (p *Port) handleControl(f *Frame) {
	if f.CumFreed > p.freedSeen {
		p.credits += int(f.CumFreed - p.freedSeen)
		p.freedSeen = f.CumFreed
		if p.credits > p.cfg.Credits {
			panic(fmt.Sprintf("llc: %s: credit overflow (%d > %d)", p.name, p.credits, p.cfg.Credits))
		}
		if p.probeTimer != nil {
			p.probeTimer.Cancel()
			p.probeTimer = nil
		}
		p.probeAttempts = 0
		p.creditWaiter.Broadcast()
		if p.pending.Len() > 0 {
			p.scheduleFlush()
		}
	}
	if f.Probe {
		// The peer is credit-starved and suspects lost returns: refresh our
		// cumulative state immediately (idempotent, so always safe).
		p.scheduleCreditReturn()
	}
	// Prune the replay buffer, and the attribution records that ride with
	// its frames, up to the peer's cumulative ack.
	for seq := p.oldestKept; seq < f.CumAck && seq < p.nextSeq; seq++ {
		*p.slot(seq) = replaySlot{}
	}
	if f.CumAck > p.oldestKept {
		p.oldestKept = f.CumAck
	}
	if f.ReplayValid {
		p.replay(f.ReplayFrom)
	}
	if f.CaughtUp && f.ReplayFrom == p.expected {
		// The peer has sent nothing we lack, so the outage that opened
		// the request (a corrupted control frame, say) cost no data. A
		// stale answer, from before in-order data moved expected on, is
		// ignored: the request it answered was already cleared.
		p.replayAsked = false
		p.rxStalls = 0
		p.cancelReplayTimer()
		p.closeReplayWindow()
	}
}

// replay retransmits frames in order starting at from. A request for
// nothing sent yet is answered with a caught-up control frame, or the
// requester would re-ask until it fenced the link.
func (p *Port) replay(from uint64) {
	if from >= p.nextSeq {
		p.sendControl(Frame{CaughtUp: true, ReplayFrom: p.nextSeq})
		return
	}
	if from < p.oldestKept {
		from = p.oldestKept
	}
	for seq := from; seq < p.nextSeq; seq++ {
		p.stats.TxReplayed++
		p.transmitWire(*p.slot(seq))
	}
}

func (p *Port) handleData(f *Frame, aux any) {
	p.stats.RxFrames++
	switch {
	case f.Seq == p.expected:
		// The records came in-band with this delivery (duplicates are
		// filtered by the sequence check, so a record is attached exactly
		// once).
		if recs, _ := aux.([]*latency.Record); recs != nil {
			now := p.k.NowPS()
			flight := p.inCrossing
			for i, t := range f.Txns {
				if i < len(recs) && recs[i] != nil {
					t.Lat = recs[i]
					// Split the time since the transmit-side stamp into
					// serialization/queueing/replay versus the flight
					// crossing the receiver knows.
					if t.IsResponse() {
						t.Lat.Wire(latency.StageRetTx, latency.StageRetFlight, now, flight)
					} else {
						t.Lat.Wire(latency.StageFrameTx, latency.StagePhyFlight, now, flight)
					}
				}
			}
		}
		p.expected++
		p.rxStalls = 0
		p.cancelReplayTimer()
		p.closeReplayWindow() // in-order delivery resumed
		p.replayAsked = false
		for _, t := range f.Txns {
			if t.Op == capi.OpNop {
				continue
			}
			p.stats.RxTransactions++
			p.freedTotal++
			if p.OnReceive != nil {
				p.OnReceive(t)
			}
		}
		p.scheduleCreditReturn()
	case f.Seq > p.expected:
		p.stats.RxGaps++
		if tr := p.k.Tracer(); tr != nil {
			tr.Instant(trace.LayerLLC, "rx_gap", p.k.NowPS())
		}
		p.requestReplay()
	default:
		// Duplicate from a replay we already consumed.
		p.stats.RxDuplicates++
		p.scheduleCreditReturn() // refresh CumAck so the peer prunes
	}
}

// requestReplay asks the peer to retransmit from the next expected frame.
// Repeated triggers within one outage coalesce; a timer covers the loss of
// the request itself.
func (p *Port) requestReplay() {
	if p.replayAsked {
		return
	}
	p.replayAsked = true
	if !p.replayOpen {
		// Timer-driven re-requests within the same outage keep the
		// original window open.
		p.replayOpen, p.replayStart = true, p.k.NowPS()
	}
	p.sendControl(Frame{ReplayValid: true, ReplayFrom: p.expected})
	p.armReplayTimer()
}

// closeReplayWindow ends the open replay window, if any, and records it
// as one span.
func (p *Port) closeReplayWindow() {
	if !p.replayOpen {
		return
	}
	p.replayOpen = false
	if tr := p.k.Tracer(); tr != nil {
		tr.Span(trace.LayerLLC, "replay", p.replayStart, p.k.NowPS())
	}
}

func (p *Port) armReplayTimer() {
	p.cancelReplayTimer()
	p.replayTimer = p.k.Schedule(p.cfg.ReplayTimeout, p.replayTimeout)
}

func (p *Port) replayTimeout() {
	p.replayTimer = nil
	p.rxStalls++
	if p.rxStalls > p.cfg.MaxReplayAttempts {
		// Replay requests are going unanswered: the reverse path (or the
		// peer) is dead. Fence the link instead of re-requesting forever.
		p.stats.ReplayExhausted++
		p.escalateDown()
		return
	}
	p.replayAsked = false
	p.requestReplay()
}

func (p *Port) cancelReplayTimer() {
	if p.replayTimer != nil {
		p.replayTimer.Cancel()
		p.replayTimer = nil
	}
}

// scheduleCreditReturn batches the credit/ack updates accumulated within one
// event cascade into a single control frame carrying the full cumulative
// state.
func (p *Port) scheduleCreditReturn() {
	if p.credQueued || p.down {
		return
	}
	p.credQueued = true
	p.k.Schedule(0, p.t.credit)
}

func (p *Port) sendCreditReturn() {
	p.credQueued = false
	if p.down {
		return
	}
	p.sendControl(Frame{})
}
