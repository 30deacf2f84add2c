package llc

import (
	"encoding/hex"
	"testing"
	"testing/quick"

	"thymesisflow/internal/capi"
)

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	f := &Frame{
		Kind: kindData,
		Seq:  42,
		Txns: []*capi.Transaction{
			{Op: capi.OpReadReq, Addr: 0xDEADBEEF00, Size: 128, Tag: 7, NetworkID: 3, Bonded: true},
			{Op: capi.OpWriteResp, Addr: 0x1000, Size: 0, Tag: 9},
		},
	}
	wire := f.Encode()
	if len(wire) != FrameBytes {
		t.Fatalf("wire size = %d, want %d", len(wire), FrameBytes)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 42 || len(got.Txns) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	tx := got.Txns[0]
	if tx.Op != capi.OpReadReq || tx.Addr != 0xDEADBEEF00 || tx.Size != 128 ||
		tx.Tag != 7 || tx.NetworkID != 3 || !tx.Bonded {
		t.Fatalf("decoded txn %+v", tx)
	}
}

func TestFrameWithDataPayload(t *testing.T) {
	data := make([]byte, 128)
	for i := range data {
		data[i] = byte(i)
	}
	f := &Frame{
		Kind: kindData,
		Seq:  1,
		Txns: []*capi.Transaction{
			{Op: capi.OpWriteReq, Addr: 0x80, Size: 128, Tag: 1, Data: data},
		},
	}
	got, err := Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Txns[0].Data) != 128 {
		t.Fatalf("payload length %d", len(got.Txns[0].Data))
	}
	for i, b := range got.Txns[0].Data {
		if b != byte(i) {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestControlFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Kind:        kindControl,
		ReplayValid: true,
		ReplayFrom:  100,
		CumFreed:    37,
		Probe:       true,
		CumAck:      99,
	}
	wire := f.Encode()
	if len(wire) != ControlFrameBytes {
		t.Fatalf("control wire size = %d, want %d", len(wire), ControlFrameBytes)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ReplayValid || got.ReplayFrom != 100 || got.CumFreed != 37 || !got.Probe || got.CumAck != 99 {
		t.Fatalf("decoded control %+v", got)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	f := &Frame{Kind: kindData, Seq: 5, Txns: []*capi.Transaction{
		{Op: capi.OpReadReq, Addr: 0x100, Size: 128, Tag: 1},
	}}
	wire := f.Encode()
	for _, pos := range []int{0, 10, len(wire) - 5} {
		mut := append([]byte(nil), wire...)
		mut[pos] ^= 0x42
		if _, err := Decode(mut); err != ErrCRC {
			t.Fatalf("corruption at byte %d not detected: %v", pos, err)
		}
	}
}

func TestDecodeShortFrame(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestFrameOverflowPanics(t *testing.T) {
	txns := make([]*capi.Transaction, 0, 8)
	data := make([]byte, 128)
	for i := 0; i < 8; i++ { // 8 writes x 5 flits = 40 flits >> 16
		txns = append(txns, &capi.Transaction{Op: capi.OpWriteReq, Addr: 0, Size: 128, Data: data})
	}
	f := &Frame{Kind: kindData, Txns: txns}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized frame encoded without panic")
		}
	}()
	f.Encode()
}

// Property: encode/decode round-trips arbitrary (valid) transactions.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(addr uint64, tag uint32, netID uint16, bonded bool, read bool) bool {
		op := capi.OpWriteReq
		var data []byte
		if read {
			op = capi.OpReadReq
		} else {
			data = make([]byte, 128)
		}
		fr := &Frame{Kind: kindData, Seq: 1, Txns: []*capi.Transaction{
			{Op: op, Addr: addr, Size: 128, Tag: tag, NetworkID: netID, Bonded: bonded, Data: data},
		}}
		got, err := Decode(fr.Encode())
		if err != nil {
			return false
		}
		g := got.Txns[0]
		return g.Op == op && g.Addr == addr && g.Tag == tag &&
			g.NetworkID == netID && g.Bonded == bonded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeGolden pins the wire format byte for byte. The literals were
// produced by the original append-based encoder, one 32-byte flit per
// line, so any encoder must reproduce them exactly; the round-trip tests
// alone would accept a format that changed on both sides.
func TestEncodeGolden(t *testing.T) {
	data := make([]byte, 128)
	capi.FillPattern(data, 0x5EED)
	cases := []struct {
		name  string
		frame *Frame
		hex   string
	}{{
		// A read request and a 128 B write with data on a bonded flow
		// with a PASID, a write response, an explicit nop, and nop
		// padding up to the frame size.
		name: "data",
		frame: &Frame{Kind: kindData, Seq: 0x0102030405060708, Txns: []*capi.Transaction{
			{Op: capi.OpReadReq, Addr: 0xDEADBEEF00, Size: 128, Tag: 7, NetworkID: 3, Bonded: true, PASID: 0x2A},
			{Op: capi.OpWriteReq, Addr: 0x4000, Size: 128, Tag: 8, NetworkID: 3, Bonded: true, PASID: 0x2A, Data: data},
			{Op: capi.OpWriteResp, Addr: 0x1000, Tag: 9, NetworkID: 5},
			{Op: capi.OpNop},
		}},
		hex: "01080706050403020104000100efbeadde00000080000000070000000300012a" +
			"0000000003004000000000000080000000080000000300012a00000001b4a9f0" +
			"039dfdf1097584bf1b16743255b343b39646ca5b5d8d52227d6c9bd270755491" +
			"f916b7f20bca7c38952bf9b75e907f1dc2f2d06c29b125c10598a68912739ecb" +
			"dab87fa2da27473fcb598dd03e59c6156c7bf1a5581a487bfa42c01a65cc8d8e" +
			"a8ea6aaf22b9bf0a6464ae2b2d071b2310a7830ead121fd96921ff309d040010" +
			"0000000000000000000009000000050000000000000000000000000000000000" +
			"0000000000000000000000000000000000000000000000000000000000000000" +
			"0000000000000000000000000000000000000000000000000000000000000000" +
			"0000000000000000000000000000000000000000000000000000000000000000" +
			"0000000000000000000000000000000000000000000000000000000000000000" +
			"0000000000000000000000000000000000000000000000000000000000000000" +
			"0000000000000000000000000000000000000000000000000000000000000000" +
			"0000000000000000000000000000000000000000000000000000000000000000" +
			"0000000000000000000000000000000000000000000000000000000000000000" +
			"00000000000000000000000000000000000000000000000000000000a8e4e1c9",
	}, {
		name: "control",
		frame: &Frame{Kind: kindControl, ReplayValid: true, ReplayFrom: 0x1122334455667788,
			Probe: true, CumFreed: 0x0A0B0C0D0E0F1011, CumAck: 0x99AABBCCDDEEFF00},
		hex: "020188776655443322110111100f0e0d0c0b0a00ffeeddccbbaa99007ce0ea9c",
	}}
	for _, c := range cases {
		if got := hex.EncodeToString(c.frame.Encode()); got != c.hex {
			t.Errorf("%s frame encodes to\n%s\nwant\n%s", c.name, got, c.hex)
		}
	}
}
