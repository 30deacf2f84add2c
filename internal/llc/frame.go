// Package llc implements the ThymesisFlow Link-Layer Control protocol
// (Section IV-A4): a reliable, credit-flow-controlled framing layer between
// two endpoints of a network channel.
//
// Protocol features, mirroring the paper:
//
//   - Backpressure: a credit-based mechanism protects the Rx ingress queue
//     from overflow. Each credit represents one empty transaction slot at
//     the receiver; credits are returned piggy-backed on in-band control
//     frames flowing in the reverse direction.
//   - Framing: transactions are grouped into frames of a fixed number of
//     flits. A frame is formed when the outbound serializer is within one
//     frame time of free, from every transaction waiting then, so a loaded
//     link packs several transactions per frame while at most one formed
//     frame waits ahead of the wire. A frame formed while nothing else
//     waits is padded with single-flit nop headers and sent, not held.
//   - Frame replay: frames carry consecutive sequence numbers and a CRC. A
//     receiver that observes a sequence gap or a CRC error sends an
//     in-band replay request; the transmitter then replays the frame
//     sequence in order from its replay buffer, or, when it has sent
//     nothing from the requested frame on, answers "caught up" so the
//     receiver stops asking.
//
// Ownership. A port encodes each frame into a fixed-size array
// (*[FrameBytes]byte or *[ControlFrameBytes]byte) that is the phy
// delivery's payload. The array is not written while any copy of it is in
// flight, and phy and fabric never duplicate a delivery, so it is reused
// only where its last copy is known to be consumed:
//   - A data array goes back to its sender's small free list when the
//     peer's CumAck prunes a frame that went on the wire exactly once: the
//     ack means that one copy was decoded. A frame with any replayed or
//     tail-loss copy is never reused, since such a copy can still be in
//     flight, or queued in a fabric switch, after the prune.
//   - Control frames are never replayed, so the port that decodes one
//     keeps its array, on a small free list of its own, for its own
//     control frames.
//
// A receiver decodes each data frame's transactions into one fresh
// []capi.Transaction and their data into one fresh []byte, each Data a
// slice of it whose capacity is its length, so appending to one never
// writes into another. Every transaction handed to OnReceive belongs to
// the upper layer from then on: the donor endpoint turns a request into
// its response in place and sends it back.
package llc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"thymesisflow/internal/capi"
)

// FrameFlits is the fixed frame size in flits. With 32-byte flits this
// yields 512-byte frames: under load one carries 16 read requests or 3
// 128 B responses (5 flits each), amortizing the header over several
// cachelines, yet a lone transaction on a quiet link pads only 512 B.
const FrameFlits = 16

// FrameBytes is the wire size of every data frame.
const FrameBytes = FrameFlits * capi.FlitSize

// ControlFrameBytes is the wire size of the special single-flit frames used
// for in-band messages (replay requests and credit returns).
const ControlFrameBytes = capi.FlitSize

// frameKind discriminates data frames from in-band control frames.
type frameKind uint8

const (
	kindData frameKind = iota + 1
	kindControl
)

// Frame is one LLC frame. Data frames carry up to FrameFlits' worth of
// transaction flits; control frames carry replay requests and credit
// returns.
type Frame struct {
	Kind frameKind
	Seq  uint64 // data frames: consecutive sequence number

	Txns []*capi.Transaction // data frames

	// Control frame payload.
	ReplayFrom  uint64 // request replay starting at this sequence, if ReplayValid
	ReplayValid bool
	// CumFreed is the cumulative count of transaction slots freed at the
	// receiver since port creation. Carrying the running total instead of an
	// increment makes credit returns idempotent: a lost control frame is
	// repaired by any later one, so credits are conserved under arbitrary
	// control-frame loss.
	CumFreed uint64
	// Probe requests an immediate credit-return control frame from the peer.
	// A credit-starved transmitter sends probes when it has pending traffic
	// but no acknowledgement traffic left to piggy-back returns on.
	Probe  bool
	CumAck uint64 // highest in-order sequence received + 1 (prunes replay buffer)
	// CaughtUp answers a replay request the sender cannot serve: it has
	// transmitted nothing at or after ReplayFrom, which it sets to its next
	// sequence number. The requester has everything the peer sent, so it
	// stops asking. It rides in the control frame's one spare byte, and a
	// frame without it encodes exactly as one from before the flag existed.
	CaughtUp bool
}

// WireBytes returns the frame's on-wire size.
func (f *Frame) WireBytes() int {
	if f.Kind == kindControl {
		return ControlFrameBytes
	}
	return FrameBytes
}

// Wire layout. Every frame starts with its kind byte and ends with a CRC-32
// trailer over everything before it; data frames are nop-padded to
// FrameBytes, control frames to ControlFrameBytes.
const (
	// controlBody is kind, replay-valid, replay-from, probe, cum-freed,
	// cum-ack and caught-up: the whole flit before the CRC trailer.
	controlBody = 1 + 1 + 8 + 1 + 8 + 8 + 1
	// dataHeader is kind, sequence number and transaction count.
	dataHeader = 1 + 8 + 2
	// txnHeader is one transaction's op, address, size, tag, network id,
	// bonded flag, PASID and has-data flag; the data bytes follow it.
	txnHeader = 1 + 8 + 4 + 4 + 2 + 1 + 4 + 1
)

var le = binary.LittleEndian

// bodyBytes returns the encoded size of the frame before padding.
func (f *Frame) bodyBytes() int {
	switch f.Kind {
	case kindControl:
		return controlBody
	case kindData:
		n := dataHeader
		for _, t := range f.Txns {
			n += txnHeader + len(t.Data)
		}
		return n
	}
	panic(fmt.Sprintf("llc: encode of unknown frame kind %d", f.Kind))
}

// Encode serializes the frame to its wire representation, padding data
// frames to the full frame size and appending a CRC-32 in the trailer.
func (f *Frame) Encode() []byte {
	buf := make([]byte, f.WireBytes())
	f.encodeTo(buf)
	return buf
}

// encodeTo writes the frame's wire image into buf, which must be exactly
// WireBytes long. It clears the padding, so buf may hold an earlier frame:
// the port encodes straight into a fixed-size array, a recycled one when it
// has one, and boxing the array's pointer in a phy delivery costs nothing.
func (f *Frame) encodeTo(buf []byte) {
	want := len(buf) - 4 // the CRC trailer follows the padded body
	if n := f.bodyBytes(); n > want {
		panic(fmt.Sprintf("llc: frame payload %dB exceeds wire size %dB", n, want))
	}
	buf[0] = uint8(f.Kind)
	pos := controlBody
	if f.Kind == kindControl {
		// Control frames carry no sequence number: they are idempotent and
		// outside the replay window, which keeps them within a single flit.
		buf[1] = flag(f.ReplayValid)
		le.PutUint64(buf[2:], f.ReplayFrom)
		buf[10] = flag(f.Probe)
		le.PutUint64(buf[11:], f.CumFreed)
		le.PutUint64(buf[19:], f.CumAck)
		buf[27] = flag(f.CaughtUp)
	} else {
		le.PutUint64(buf[1:], f.Seq)
		le.PutUint16(buf[9:], uint16(len(f.Txns)))
		pos = dataHeader
		for _, t := range f.Txns {
			h := buf[pos : pos+txnHeader]
			h[0] = uint8(t.Op)
			le.PutUint64(h[1:], t.Addr)
			le.PutUint32(h[9:], uint32(t.Size))
			le.PutUint32(h[13:], t.Tag)
			le.PutUint16(h[17:], t.NetworkID)
			h[19] = flag(t.Bonded)
			le.PutUint32(h[20:], t.PASID)
			h[24] = flag(t.Data != nil)
			pos += txnHeader
			pos += copy(buf[pos:], t.Data)
		}
	}
	clear(buf[pos:want])
	le.PutUint32(buf[want:], crc32.ChecksumIEEE(buf[:want]))
}

func flag(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// errShort reports a frame whose body ends before its header says it does.
var errShort = errors.New("llc: truncated frame body")

// Decode parses a wire frame, verifying the CRC. A CRC mismatch returns
// ErrCRC; the caller reacts by requesting a replay.
func Decode(wire []byte) (*Frame, error) {
	f := &Frame{}
	if err := f.decode(wire); err != nil {
		return nil, err
	}
	return f, nil
}

// decode parses wire into f, reusing f.Txns' backing array; the port
// decodes every delivery into one array this way. A data frame's
// transactions are decoded into one fresh block and their data into
// another (see the package doc), so a frame costs at most two allocations
// whatever it carries, and nothing decoded points into wire. On error f
// holds no usable frame.
func (f *Frame) decode(wire []byte) error {
	if len(wire) < 5 {
		return fmt.Errorf("llc: short frame (%dB)", len(wire))
	}
	body, trailer := wire[:len(wire)-4], wire[len(wire)-4:]
	if crc32.ChecksumIEEE(body) != le.Uint32(trailer) {
		return ErrCRC
	}
	// Bounds-checked reads: a frame can pass the CRC and still carry an
	// inconsistent header (e.g. forged by a misbehaving switch), so every
	// read is validated rather than trusted. The length check above leaves
	// at least the kind byte.
	clear(f.Txns)
	*f = Frame{Kind: frameKind(body[0]), Txns: f.Txns[:0]}
	switch f.Kind {
	case kindControl:
		if len(body) < controlBody {
			return errShort
		}
		f.ReplayValid = body[1] == 1
		f.ReplayFrom = le.Uint64(body[2:])
		f.Probe = body[10] == 1
		f.CumFreed = le.Uint64(body[11:])
		f.CumAck = le.Uint64(body[19:])
		f.CaughtUp = body[27] == 1
	case kindData:
		if len(body) < dataHeader {
			return errShort
		}
		f.Seq = le.Uint64(body[1:])
		n := int(le.Uint16(body[9:]))
		pos := dataHeader
		// Every transaction needs at least a header, so a count the body
		// cannot hold is rejected before anything is sized from it.
		if n > (len(body)-pos)/txnHeader {
			return errShort
		}
		if n == 0 {
			return nil
		}
		if cap(f.Txns) < n {
			f.Txns = make([]*capi.Transaction, 0, n)
		}
		block := make([]capi.Transaction, n)
		dataBytes := 0
		for i := range block {
			if len(body)-pos < txnHeader {
				return errShort
			}
			h := body[pos : pos+txnHeader]
			pos += txnHeader
			t := &block[i]
			*t = capi.Transaction{
				Op:        capi.Op(h[0]),
				Addr:      le.Uint64(h[1:]),
				Size:      int32(le.Uint32(h[9:])),
				Tag:       le.Uint32(h[13:]),
				NetworkID: le.Uint16(h[17:]),
				Bonded:    h[19] == 1,
				PASID:     le.Uint32(h[20:]),
			}
			if t.Size < 0 || t.Size > capi.Cacheline {
				return fmt.Errorf("llc: frame carries invalid size %d", t.Size)
			}
			if h[24] == 1 {
				size := int(t.Size)
				if len(body)-pos < size {
					return errShort
				}
				if size > 0 {
					// Points into wire until the copy below; empty data
					// decodes as nil, as it always has.
					t.Data = body[pos : pos+size : pos+size]
				}
				pos += size
				dataBytes += size
			}
			f.Txns = append(f.Txns, t)
		}
		if dataBytes > 0 {
			data := make([]byte, dataBytes)
			for i := range block {
				if t := &block[i]; t.Data != nil {
					n := copy(data, t.Data)
					t.Data, data = data[:n:n], data[n:]
				}
			}
		}
	default:
		return fmt.Errorf("llc: unknown frame kind %d", f.Kind)
	}
	return nil
}

// ErrCRC indicates a frame failed its CRC check.
var ErrCRC = fmt.Errorf("llc: frame CRC mismatch")
