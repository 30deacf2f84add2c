package sim

import "testing"

func TestCancelDuringCascade(t *testing.T) {
	// An event scheduled for the same instant can be cancelled by an
	// earlier event in the cascade.
	k := NewKernel()
	fired := false
	var victim *Event
	k.Schedule(Nanosecond, func() { victim.Cancel() })
	victim = k.Schedule(Nanosecond, func() { fired = true })
	k.Run()
	if fired {
		t.Fatal("event fired despite same-instant cancellation")
	}
}

func TestStopThenRunResumes(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 5; i++ {
		k.Schedule(Time(i)*Nanosecond, func() {
			count++
			if count == 2 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 2 {
		t.Fatalf("count after stop = %d", count)
	}
	k.Run() // resumes the remaining events
	if count != 5 {
		t.Fatalf("count after resume = %d", count)
	}
}

func TestZeroSleepYields(t *testing.T) {
	// Sleep(0) must let same-instant events run before the process
	// continues (a cooperative yield).
	k := NewKernel()
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilExactEventTime(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(10*Nanosecond, func() { fired = true })
	k.RunUntil(10 * Nanosecond)
	if !fired {
		t.Fatal("event at the limit did not fire (limit is inclusive)")
	}
}

func TestPendingCount(t *testing.T) {
	k := NewKernel()
	k.Schedule(Nanosecond, func() {})
	k.Schedule(2*Nanosecond, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("pending after run = %d", k.Pending())
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	defer func() {
		if recover() == nil {
			t.Fatal("negative waitgroup did not panic")
		}
	}()
	wg.Add(-1)
}

func TestSignalCrossKernelPanics(t *testing.T) {
	k1, k2 := NewKernel(), NewKernel()
	s := NewSignal(k1)
	panicked := false
	k2.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		s.Wait(p)
	})
	k2.Run()
	if !panicked {
		t.Fatal("cross-kernel Wait did not panic")
	}
}
