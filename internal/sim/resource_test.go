package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceAcquireRelease(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 2)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(10 * Nanosecond)
			r.Release(1)
		})
	}
	k.Run()
	if len(order) != 4 {
		t.Fatalf("completed %d acquisitions, want 4", len(order))
	}
	if r.InUse() != 0 {
		t.Fatalf("resource leaked: inUse=%d", r.InUse())
	}
	// First two get in immediately at t=0; the rest at t=10ns in FIFO order.
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("acquisition order %v, want %v", order, want)
		}
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 4)
	var order []string
	k.Go("hog", func(p *Proc) {
		r.Acquire(p, 3)
		p.Sleep(10 * Nanosecond)
		r.Release(3)
	})
	k.Go("big", func(p *Proc) {
		p.Sleep(Nanosecond)
		r.Acquire(p, 4) // needs everything; queues first
		order = append(order, "big")
		r.Release(4)
	})
	k.Go("small", func(p *Proc) {
		p.Sleep(2 * Nanosecond)
		r.Acquire(p, 1) // could fit now, but must not jump the big waiter
		order = append(order, "small")
		r.Release(1)
	})
	k.Run()
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("order = %v, want big before small (FIFO, no starvation)", order)
	}
}

func TestResourceOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	k := NewKernel()
	r := NewResource(k, 1)
	r.Release(1)
}

// Property: capacity is never exceeded regardless of the acquire/release
// pattern, and all work completes (no deadlock) when requests fit capacity.
func TestQuickResourceCapacityInvariant(t *testing.T) {
	f := func(seeds []uint8) bool {
		k := NewKernel()
		const capacity = 5
		r := NewResource(k, capacity)
		ok := true
		completed := 0
		for _, s := range seeds {
			n := int(s%capacity) + 1
			hold := Time(s) * Nanosecond
			k.Go("w", func(p *Proc) {
				r.Acquire(p, n)
				if r.InUse() > capacity {
					ok = false
				}
				p.Sleep(hold)
				r.Release(n)
				completed++
			})
		}
		k.Run()
		return ok && completed == len(seeds) && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeSerializesTransfers(t *testing.T) {
	k := NewKernel()
	pp := NewPipe(k, 1e9) // 1 GB/s => 1 byte per ns
	s1, d1 := pp.Reserve(1000)
	s2, d2 := pp.Reserve(500)
	if s1 != 0 || d1 != 1000*Nanosecond {
		t.Fatalf("first transfer [%v,%v], want [0,1000ns]", s1, d1)
	}
	if s2 != d1 || d2 != 1500*Nanosecond {
		t.Fatalf("second transfer [%v,%v], want [1000ns,1500ns]", s2, d2)
	}
	if pp.TotalBytes() != 1500 {
		t.Fatalf("total bytes = %d, want 1500", pp.TotalBytes())
	}
}

func TestPipeThroughputAccounting(t *testing.T) {
	k := NewKernel()
	pp := NewPipe(k, 1e9)
	k.Go("tx", func(p *Proc) {
		for i := 0; i < 10; i++ {
			_, done := pp.Reserve(100)
			p.Sleep(done - p.Now())
		}
	})
	k.Run()
	// 1000 bytes in 1000ns => 1 GB/s
	tp := pp.Throughput()
	if tp < 0.99e9 || tp > 1.01e9 {
		t.Fatalf("throughput = %v, want ~1e9", tp)
	}
}

// TestPipeIdleGapNotCounted checks that a transfer after an idle gap is
// not charged for the gap: it starts at once and takes its own time only.
func TestPipeIdleGapNotCounted(t *testing.T) {
	k := NewKernel()
	pp := NewPipe(k, 1e9)
	k.Go("tx", func(p *Proc) {
		pp.Reserve(100)
		p.Sleep(1000 * Nanosecond) // long idle gap
		_, done := pp.Reserve(100)
		if done-p.Now() != 100*Nanosecond {
			t.Errorf("transfer after idle took %v, want 100ns", done-p.Now())
		}
	})
	k.Run()
}
