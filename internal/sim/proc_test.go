package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 100*Nanosecond {
		t.Fatalf("woke at %v, want 100ns", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(10 * Nanosecond)
					order = append(order, name)
				}
			})
		}
		k.Run()
		return order
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// Same-instant wakeups preserve spawn order.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woken := 0
	for i := 0; i < 4; i++ {
		k.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(50 * Nanosecond)
		if s.Waiters() != 4 {
			t.Errorf("waiters = %d, want 4", s.Waiters())
		}
		s.Broadcast()
	})
	k.Run()
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestSignalWakeOne(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(Nanosecond)
		if !s.Wake() {
			t.Error("Wake returned false with waiters present")
		}
	})
	k.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	if s.Waiters() != 2 {
		t.Fatalf("remaining waiters = %d, want 2", s.Waiters())
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	wg.Add(3)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		i := i
		k.Go("worker", func(p *Proc) {
			p.Sleep(Time(i) * 10 * Nanosecond)
			wg.Done()
		})
	}
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	k.Run()
	if doneAt != 30*Nanosecond {
		t.Fatalf("WaitGroup released at %v, want 30ns", doneAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	passed := false
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p) // must not block
		passed = true
	})
	k.Run()
	if !passed {
		t.Fatal("Wait on zero WaitGroup blocked forever")
	}
}

// TestProcPanicSurfacesInRun checks that a panic in a process body unwinds
// through the kernel into the goroutine that called Run, where it can be
// recovered.
func TestProcPanicSurfacesInRun(t *testing.T) {
	k := NewKernel()
	k.Go("boom", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v around Run, want the process's panic", got)
	}
	if k.Now() != Nanosecond {
		t.Fatalf("clock at %v after the panic, want 1ns", k.Now())
	}
}

// TestProcGoexitEndsRunner checks that runtime.Goexit in a process body
// (as t.FailNow does) ends the goroutine that called Run, running its
// deferred calls, instead of hanging it.
func TestProcGoexitEndsRunner(t *testing.T) {
	k := NewKernel()
	k.Go("quitter", func(p *Proc) {
		p.Sleep(Nanosecond)
		runtime.Goexit()
	})
	returned := make(chan bool, 1)
	go func() {
		ran := false
		defer func() { returned <- ran }()
		k.Run()
		ran = true
	}()
	select {
	case ran := <-returned:
		if ran {
			t.Fatal("Run returned normally after the process called Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Goexit in a process hung the goroutine running the kernel")
	}
}

// TestFifoOrder drives the wait-queue FIFO through growth, rewinds on
// drain and compaction before growth, checking order against a slice.
func TestFifoOrder(t *testing.T) {
	var q FIFO[int]
	var ref []int
	next := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			ref = append(ref, next)
			next++
		}
		for i := 0; i < round%5+1 && len(ref) > 0; i++ {
			if got := q.Peek(); got != ref[0] {
				t.Fatalf("round %d: peek = %d, want %d", round, got, ref[0])
			}
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("round %d: pop = %d, want %d", round, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("round %d: len = %d, want %d", round, q.Len(), len(ref))
		}
	}
	for len(ref) > 0 {
		if got := q.Pop(); got != ref[0] {
			t.Fatalf("drain: pop = %d, want %d", got, ref[0])
		}
		ref = ref[1:]
	}
	if q.Len() != 0 || q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue not rewound: len %d head %d buf %d", q.Len(), q.head, len(q.buf))
	}
}
