package llc

import (
	"testing"
	"testing/quick"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// Property: for any loss/corruption seed and moderate loss rates, every
// transaction is delivered exactly once and in order — the LLC makes the
// channel lossless. A small credit window keeps the sender at its bound
// under loss, and the replay window never outgrows the credit window: every
// unacknowledged frame holds an unreturned credit, which is why the replay
// window needs no size of its own and its overflow guard never fires.
func TestQuickLosslessDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Credits = 8
	maxDepth := 0
	f := func(seed int64, lossPct, corruptPct uint8) bool {
		loss := float64(lossPct%20) / 100 // 0..19%
		corrupt := float64(corruptPct%20) / 100
		k := sim.NewKernel()
		link := phy.NewLink(k, "l", phy.LanesPerChannel, 50*sim.Nanosecond,
			phy.FaultConfig{DropProb: loss, CorruptProb: corrupt, Seed: seed})
		a, b := NewPair(k, "p", link, cfg)
		depthOK := true
		checkDepth := func() {
			d := a.ReplayDepth()
			maxDepth = max(maxDepth, d)
			depthOK = depthOK && d <= cfg.Credits
		}
		var got []uint32
		b.OnReceive = func(txn *capi.Transaction) {
			got = append(got, txn.Tag)
			checkDepth()
		}
		const n = 80
		k.Go("tx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a.SendFrom(p, &capi.Transaction{
					Op: capi.OpReadReq, Addr: uint64(i) * 128, Size: 128, Tag: uint32(i),
				})
				checkDepth()
				p.Sleep(40 * sim.Nanosecond)
			}
		})
		k.RunUntil(sim.Second)
		if !depthOK || a.Stats().ReplayOverflows != 0 {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, tag := range got {
			if tag != uint32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	if maxDepth != cfg.Credits {
		t.Fatalf("replay window peaked at %d frames, want the credit window %d: the bound was never reached", maxDepth, cfg.Credits)
	}
}

// Property: frame encode length is always the fixed wire size, and decode
// of any single-bit-flipped frame either errors or (for flips inside pad
// bytes that cancel) never mis-parses silently into different content.
func TestQuickBitFlipDetected(t *testing.T) {
	f := func(addr uint64, tag uint32, flipByte uint16, flipBit uint8) bool {
		fr := &Frame{Kind: kindData, Seq: 9, Txns: []*capi.Transaction{
			{Op: capi.OpReadReq, Addr: addr, Size: 128, Tag: tag},
		}}
		wire := fr.Encode()
		if len(wire) != FrameBytes {
			return false
		}
		mut := append([]byte(nil), wire...)
		pos := int(flipByte) % len(mut)
		mut[pos] ^= 1 << (flipBit % 8)
		_, err := Decode(mut)
		return err == ErrCRC // single-bit flips are always caught by CRC-32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	link := phy.NewLink(k, "l", phy.LanesPerChannel, 0, phy.FaultConfig{})
	for _, bad := range []Config{
		{Credits: 0, ReplayTimeout: sim.Microsecond},
		{Credits: 8, ReplayTimeout: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", bad)
				}
			}()
			NewPair(k, "p", link, bad)
		}()
	}
}
