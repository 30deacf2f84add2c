package capi

import "testing"

func TestTransactionFlits(t *testing.T) {
	cases := []struct {
		txn  Transaction
		want int
	}{
		{Transaction{Op: OpReadReq, Size: 128}, 1},
		{Transaction{Op: OpWriteReq, Size: 128}, 5}, // header + 4 data flits
		{Transaction{Op: OpReadResp, Size: 128}, 5}, // header + 4 data flits
		{Transaction{Op: OpWriteResp, Size: 0}, 1},  //
		{Transaction{Op: OpNop, Size: 0}, 1},        // single-flit padding
		{Transaction{Op: OpWriteReq, Size: 32}, 2},  // partial line
		{Transaction{Op: OpWriteReq, Size: 33}, 3},  // rounds up
		{Transaction{Op: OpReplayReq, Size: 0}, 1},  // in-band control
		{Transaction{Op: OpReadResp, Size: 64}, 3},  //
		{Transaction{Op: OpWriteReq, Size: 128}, 5}, //
		{Transaction{Op: OpReadReq, Size: 64}, 1},   // requests carry no data
		{Transaction{Op: OpReadResp, Size: 128}, 5}, //
		{Transaction{Op: OpWriteReq, Size: 1}, 2},   //
	}
	for _, c := range cases {
		if got := c.txn.Flits(); got != c.want {
			t.Errorf("%v size=%d: flits = %d, want %d", c.txn.Op, c.txn.Size, got, c.want)
		}
		if got := c.txn.Bytes(); got != c.want*FlitSize {
			t.Errorf("%v: bytes = %d, want %d", c.txn.Op, got, c.want*FlitSize)
		}
	}
}

func TestResponseMatchesRequest(t *testing.T) {
	data := make([]byte, 128)
	resp := &Transaction{Op: OpReadReq, Addr: 0x1000, Size: 128, Tag: 42, NetworkID: 7, Bonded: true, PASID: 3}
	resp.Respond(data)
	want := Transaction{Op: OpReadResp, Addr: 0x1000, Size: 128, Tag: 42, NetworkID: 7}
	if resp.Op != want.Op || resp.Addr != want.Addr || resp.Size != want.Size || resp.Tag != want.Tag ||
		resp.NetworkID != want.NetworkID || resp.Bonded || resp.PASID != 0 || len(resp.Data) != 128 {
		t.Fatalf("bad read response: %+v", resp)
	}
	wresp := &Transaction{Op: OpWriteReq, Addr: 0x2000, Size: 128, Tag: 9, Data: data}
	wresp.Respond(nil)
	if wresp.Op != OpWriteResp || wresp.Tag != 9 || wresp.Size != 0 || wresp.Data != nil {
		t.Fatalf("bad write response: %+v", wresp)
	}
}

func TestResponseOnResponsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Respond on a response did not panic")
		}
	}()
	(&Transaction{Op: OpReadResp}).Respond(nil)
}

func TestValidate(t *testing.T) {
	ok := Transaction{Op: OpReadReq, Size: 128}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid transaction rejected: %v", err)
	}
	bad := []Transaction{
		{Op: OpReadReq, Size: 0},
		{Op: OpWriteReq, Size: 256},
		{Op: OpWriteReq, Size: -1},
		{Op: OpWriteReq, Size: 64, Data: make([]byte, 32)},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid transaction accepted: %+v", i, b)
		}
	}
}

func TestPASIDRegistry(t *testing.T) {
	r := NewPASIDRegistry()
	a := r.Register("stealer-a")
	b := r.Register("stealer-b")
	if a == b {
		t.Fatal("duplicate PASIDs")
	}
	if p, ok := r.Lookup(a); !ok || p != "stealer-a" {
		t.Fatalf("lookup(a) = %q,%v", p, ok)
	}
	r.Unregister(a)
	if _, ok := r.Lookup(a); ok {
		t.Fatal("unregistered PASID still resolves")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
}

func TestOpString(t *testing.T) {
	if OpReadReq.String() != "read_req" || Op(99).String() != "op(99)" {
		t.Fatal("bad op names")
	}
}
