package llc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"thymesisflow/internal/capi"
)

// FuzzDecode drives Decode with arbitrary byte strings — including inputs
// re-sealed with a valid CRC so the header parser itself is exercised. It
// must never panic: a misbehaving fabric element can hand the receiver any
// bytes it likes.
func FuzzDecode(f *testing.F) {
	good := &Frame{Kind: kindData, Seq: 3, Txns: []*capi.Transaction{
		{Op: capi.OpReadReq, Addr: 0x1000, Size: 128, Tag: 7},
		{Op: capi.OpWriteReq, Addr: 0x2000, Size: 64, Tag: 8, Data: make([]byte, 64)},
	}}
	f.Add(good.Encode())
	ctrl := &Frame{Kind: kindControl, ReplayValid: true, ReplayFrom: 5, CumFreed: 3, Probe: true, CumAck: 4}
	f.Add(ctrl.Encode())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})
	// A forged header with an absurd transaction count, sealed with a
	// valid CRC.
	forged := make([]byte, FrameBytes-4)
	forged[0] = byte(kindData)
	binary.LittleEndian.PutUint16(forged[9:], 0xFFFF)
	forged = binary.LittleEndian.AppendUint32(forged, crc32.ChecksumIEEE(forged))
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		// Successfully decoded frames must be internally consistent.
		for _, txn := range fr.Txns {
			if txn.Size < 0 || txn.Size > capi.Cacheline {
				t.Fatalf("decoded transaction with size %d", txn.Size)
			}
			if txn.Data != nil && int32(len(txn.Data)) != txn.Size {
				t.Fatalf("data length %d != size %d", len(txn.Data), txn.Size)
			}
		}
	})
}

// FuzzDecodeCorrupted models the chaos campaign's wire faults at the unit
// level: it starts from valid encoded frames and applies the corruptions a
// lossy link produces — truncation, single-byte damage, and damage re-sealed
// with a recomputed CRC (a forged-but-checksummed frame). Decode must never
// panic; un-resealed damage to a full-length frame must be caught by the
// CRC; and any frame that does decode must re-encode to a byte-identical
// wire image.
func FuzzDecodeCorrupted(f *testing.F) {
	seeds := [][]byte{
		(&Frame{Kind: kindData, Seq: 9, Txns: []*capi.Transaction{
			{Op: capi.OpWriteReq, Addr: 0x4000, Size: 128, Tag: 1, Data: make([]byte, 128)},
		}}).Encode(),
		(&Frame{Kind: kindData, Seq: 10, Txns: []*capi.Transaction{
			{Op: capi.OpReadResp, Addr: 0x80, Size: 128, Tag: 2, Data: make([]byte, 128)},
			{Op: capi.OpNop},
		}}).Encode(),
		(&Frame{Kind: kindControl, ReplayValid: true, ReplayFrom: 17, CumFreed: 41, CumAck: 16}).Encode(),
		(&Frame{Kind: kindControl, Probe: true, CumFreed: 7, CumAck: 7}).Encode(),
	}
	for i := range seeds {
		f.Add(i, uint16(FrameBytes), uint16(i*13), byte(1<<i), false)
		f.Add(i, uint16(FrameBytes/2), uint16(0), byte(0), false)
		f.Add(i, uint16(FrameBytes), uint16(FrameBytes-1), byte(0xFF), true)
	}

	f.Fuzz(func(t *testing.T, pick int, cut uint16, pos uint16, mask byte, reseal bool) {
		if pick < 0 {
			pick = -(pick + 1)
		}
		wire := append([]byte(nil), seeds[pick%len(seeds)]...)
		truncated := int(cut) < len(wire)
		if truncated {
			wire = wire[:cut]
		}
		if len(wire) > 0 {
			wire[int(pos)%len(wire)] ^= mask
		}
		if reseal && len(wire) > 4 {
			body := wire[:len(wire)-4]
			binary.LittleEndian.PutUint32(wire[len(wire)-4:], crc32.ChecksumIEEE(body))
		}

		fr, err := Decode(wire)
		if err != nil {
			return
		}
		// CRC32 detects any single corrupted byte in a full-length frame
		// that was not re-sealed.
		if mask != 0 && !truncated && !reseal {
			t.Fatalf("corrupted frame (byte %d ^= %#x) passed CRC", int(pos)%len(wire), mask)
		}
		// Whatever decodes must survive an encode/decode round trip with an
		// identical wire image — the replay buffer depends on it.
		re := fr.Encode()
		fr2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Seq != fr.Seq || len(fr2.Txns) != len(fr.Txns) ||
			fr2.ReplayValid != fr.ReplayValid || fr2.ReplayFrom != fr.ReplayFrom ||
			fr2.Probe != fr.Probe || fr2.CumFreed != fr.CumFreed || fr2.CumAck != fr.CumAck {
			t.Fatalf("round trip changed frame: %+v vs %+v", fr, fr2)
		}
	})
}

// FuzzDecodeBlock checks the port's decode, which puts a frame's
// transactions in one block and their data in another, against
// decodeEachTxn, which allocates every transaction and its data on its
// own. Inputs are wire images, optionally re-sealed with a valid CRC so
// that damaged headers reach the parser. Both decoders must accept and
// reject the same inputs and return the same frame; every decoded Data
// must have no spare capacity, so appending to one transaction's data
// reallocates it and leaves every other transaction's data as it was.
func FuzzDecodeBlock(f *testing.F) {
	full := make([]byte, capi.Cacheline)
	capi.FillPattern(full, 5)
	f.Add((&Frame{Kind: kindData, Seq: 4, Txns: []*capi.Transaction{
		{Op: capi.OpReadResp, Addr: 0x80, Size: 128, Tag: 1, Data: full},
		{Op: capi.OpWriteReq, Addr: 0x100, Size: 64, Tag: 2, Data: full[:64]},
		{Op: capi.OpReadReq, Addr: 0x180, Size: 128, Tag: 3},
		{Op: capi.OpWriteReq, Addr: 0x200, Size: 0, Tag: 4, Data: []byte{}},
		{Op: capi.OpWriteReq, Addr: 0x280, Size: 32, Tag: 5, NetworkID: 9, Bonded: true, PASID: 77, Data: full[:32]},
	}}).Encode(), false)
	f.Add((&Frame{Kind: kindData, Seq: 5, Txns: []*capi.Transaction{
		{Op: capi.OpReadReq, Addr: 0x40, Size: 128, Tag: 6},
		{Op: capi.OpNop},
	}}).Encode(), true)
	f.Add((&Frame{Kind: kindData, Seq: 6}).Encode(), false)
	f.Add((&Frame{Kind: kindControl, ReplayValid: true, ReplayFrom: 3, CumFreed: 8, CumAck: 3}).Encode(), false)

	var got Frame // reused across inputs, as a port reuses its decode array
	f.Fuzz(func(t *testing.T, wire []byte, reseal bool) {
		wire = append([]byte(nil), wire...)
		if reseal && len(wire) > 4 {
			body := wire[:len(wire)-4]
			binary.LittleEndian.PutUint32(wire[len(wire)-4:], crc32.ChecksumIEEE(body))
		}
		want, wantErr := decodeEachTxn(wire)
		gotErr := got.decode(wire)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("block decode error %v, per-transaction decode error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.ReplayValid != want.ReplayValid ||
			got.ReplayFrom != want.ReplayFrom || got.Probe != want.Probe || got.CumFreed != want.CumFreed ||
			got.CumAck != want.CumAck || got.CaughtUp != want.CaughtUp || len(got.Txns) != len(want.Txns) {
			t.Fatalf("block decode %+v, per-transaction decode %+v", got, *want)
		}
		for i, txn := range got.Txns {
			if !reflect.DeepEqual(*txn, *want.Txns[i]) {
				t.Fatalf("transaction %d: block decode %+v, per-transaction decode %+v", i, *txn, *want.Txns[i])
			}
			if cap(txn.Data) != len(txn.Data) {
				t.Fatalf("transaction %d: data len %d, cap %d", i, len(txn.Data), cap(txn.Data))
			}
			// The decoded data must not alias the wire either.
			if len(txn.Data) > 0 {
				for j := range wire {
					if &wire[j] == &txn.Data[0] {
						t.Fatalf("transaction %d: data points into the wire", i)
					}
				}
			}
		}
		for i, txn := range got.Txns {
			grown := append(txn.Data, 0xA5, 0x5A)
			for j, other := range got.Txns {
				if j != i && !bytes.Equal(other.Data, want.Txns[j].Data) {
					t.Fatalf("appending to transaction %d's data changed transaction %d's", i, j)
				}
			}
			if !bytes.Equal(grown[:len(txn.Data)], want.Txns[i].Data) {
				t.Fatalf("appending to transaction %d's data changed its prefix", i)
			}
		}
	})
}

// decodeEachTxn is the reference decoder for FuzzDecodeBlock: the same
// checks as decode, with every transaction and its data allocated on its
// own.
func decodeEachTxn(wire []byte) (*Frame, error) {
	if len(wire) < 5 {
		return nil, fmt.Errorf("short frame")
	}
	body := wire[:len(wire)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(wire[len(wire)-4:]) {
		return nil, ErrCRC
	}
	f := &Frame{Kind: frameKind(body[0])}
	switch f.Kind {
	case kindControl:
		if len(body) < controlBody {
			return nil, errShort
		}
		f.ReplayValid = body[1] == 1
		f.ReplayFrom = le.Uint64(body[2:])
		f.Probe = body[10] == 1
		f.CumFreed = le.Uint64(body[11:])
		f.CumAck = le.Uint64(body[19:])
		f.CaughtUp = body[27] == 1
	case kindData:
		if len(body) < dataHeader {
			return nil, errShort
		}
		f.Seq = le.Uint64(body[1:])
		n := int(le.Uint16(body[9:]))
		pos := dataHeader
		for i := 0; i < n; i++ {
			if len(body)-pos < txnHeader {
				return nil, errShort
			}
			h := body[pos : pos+txnHeader]
			pos += txnHeader
			t := &capi.Transaction{
				Op:        capi.Op(h[0]),
				Addr:      le.Uint64(h[1:]),
				Size:      int32(le.Uint32(h[9:])),
				Tag:       le.Uint32(h[13:]),
				NetworkID: le.Uint16(h[17:]),
				Bonded:    h[19] == 1,
				PASID:     le.Uint32(h[20:]),
			}
			if t.Size < 0 || t.Size > capi.Cacheline {
				return nil, fmt.Errorf("invalid size %d", t.Size)
			}
			if h[24] == 1 {
				if len(body)-pos < int(t.Size) {
					return nil, errShort
				}
				t.Data = append([]byte(nil), body[pos:pos+int(t.Size)]...)
				pos += int(t.Size)
			}
			f.Txns = append(f.Txns, t)
		}
	default:
		return nil, fmt.Errorf("unknown frame kind %d", f.Kind)
	}
	return f, nil
}

func TestDecodeForgedCountDoesNotPanic(t *testing.T) {
	// Valid CRC, data kind, transaction count far beyond the body.
	body := make([]byte, FrameBytes-4)
	body[0] = byte(kindData)
	binary.LittleEndian.PutUint16(body[9:], 0xFFFF)
	wire := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, err := Decode(wire); err == nil {
		t.Fatal("forged frame decoded successfully")
	}
	// The count is checked against the body before anything is sized from
	// it, so rejecting the frame costs only Decode's Frame, not a 512 KiB
	// transaction table.
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, func() { Decode(wire) }); allocs > 1 {
		t.Fatalf("rejecting a forged count allocated %.0f times, want at most 1", allocs)
	}
}

func TestDecodeForgedSizeRejected(t *testing.T) {
	// One transaction claiming a 2 GiB payload.
	var body []byte
	body = append(body, byte(kindData))
	body = binary.LittleEndian.AppendUint64(body, 1) // seq
	body = binary.LittleEndian.AppendUint16(body, 1) // count
	body = append(body, byte(capi.OpWriteReq))
	body = binary.LittleEndian.AppendUint64(body, 0x1000)  // addr
	body = binary.LittleEndian.AppendUint32(body, 1<<31-1) // size
	body = binary.LittleEndian.AppendUint32(body, 1)       // tag
	body = binary.LittleEndian.AppendUint16(body, 1)       // netid
	body = append(body, 0)                                 // bonded
	body = binary.LittleEndian.AppendUint32(body, 0)       // pasid
	body = append(body, 0)                                 // no data
	for len(body) < FrameBytes-4 {
		body = append(body, 0)
	}
	wire := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, err := Decode(wire); err == nil {
		t.Fatal("frame with forged size accepted")
	}
}
