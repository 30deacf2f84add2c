package sim

import "testing"

// kernelAllocBudget is the regression ceiling for one full
// BenchmarkKernelScheduleRun iteration (100k self-rescheduled events plus a
// 64-event standing population on a fresh kernel): the event free list must
// keep steady-state dispatch allocation-free, leaving only kernel
// construction, heap growth, and the initial event population.
const kernelAllocBudget = 85

// TestKernelAllocRegression pins the single-shard hot path: the sharding
// refactor (ScheduleAt -> schedule, the (at, schedAt, seq) order, NextAt /
// RunBefore) must not add allocations to the sequential kernel loop.
func TestKernelAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const events = 100_000
	allocs := testing.AllocsPerRun(3, func() {
		k := NewKernel()
		fired := 0
		var step func()
		step = func() {
			fired++
			if fired < events {
				k.Schedule(Time(fired%7)*Nanosecond, step)
			}
		}
		for j := 0; j < 64; j++ {
			k.Schedule(Time(j)*Nanosecond, func() {})
		}
		k.Schedule(0, step)
		k.Run()
		if fired != events {
			t.Fatalf("fired %d events, want %d", fired, events)
		}
	})
	if allocs > kernelAllocBudget {
		t.Fatalf("kernel schedule/run workload allocated %.0f times, budget %d", allocs, kernelAllocBudget)
	}
}

// TestKernelWindowedAllocRegression applies the same budget to the windowed
// (RunBefore) stepping: per-window NextAt/RunBefore coordination must be
// allocation-free too.
func TestKernelWindowedAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const events = 100_000
	allocs := testing.AllocsPerRun(3, func() {
		k := NewKernel()
		fired := 0
		var step func()
		step = func() {
			fired++
			if fired < events {
				k.Schedule(Time(fired%7)*Nanosecond, step)
			}
		}
		for j := 0; j < 64; j++ {
			k.Schedule(Time(j)*Nanosecond, func() {})
		}
		k.Schedule(0, step)
		for {
			at, ok := k.NextAt()
			if !ok {
				break
			}
			k.RunBefore(at + 50*Nanosecond)
		}
		if fired != events {
			t.Fatalf("fired %d events, want %d", fired, events)
		}
	})
	if allocs > kernelAllocBudget {
		t.Fatalf("windowed kernel workload allocated %.0f times, budget %d", allocs, kernelAllocBudget)
	}
}

// procWakeModels are the process-switching workloads TestProcWakeAllocs
// runs at two sizes: each builds a fresh kernel, does n park/resume rounds
// and checks that every round ran.
var procWakeModels = []struct {
	name string
	run  func(t *testing.T, n int)
}{
	{"sleep", func(t *testing.T, n int) {
		k := NewKernel()
		rounds := 0
		k.Go("sleeper", func(p *Proc) {
			for rounds < n {
				p.Sleep(Nanosecond)
				rounds++
			}
		})
		k.Run()
		if rounds != n {
			t.Fatalf("slept %d times, want %d", rounds, n)
		}
	}},
	{"signal", func(t *testing.T, n int) {
		// Two processes hand the turn back and forth on one Signal; one
		// side wakes with Wake, the other with Broadcast.
		k := NewKernel()
		s := NewSignal(k)
		rounds := 0
		k.Go("pong", func(p *Proc) {
			for i := 0; i < n; i++ {
				s.Wait(p)
				s.Broadcast()
			}
		})
		k.Go("ping", func(p *Proc) {
			for i := 0; i < n; i++ {
				s.Wake()
				s.Wait(p)
				rounds++
			}
		})
		k.Run()
		if rounds != n {
			t.Fatalf("ping-ponged %d times, want %d", rounds, n)
		}
	}},
	{"resource", func(t *testing.T, n int) {
		// Two processes contend for one unit: every Acquire after the
		// first queues behind the holder and is handed the unit by
		// Release.
		k := NewKernel()
		r := NewResource(k, 1)
		rounds := 0
		for j := 0; j < 2; j++ {
			k.Go("user", func(p *Proc) {
				for i := 0; i < n/2; i++ {
					r.Acquire(p, 1)
					p.Sleep(Nanosecond)
					r.Release(1)
					rounds++
				}
			})
		}
		k.Run()
		if rounds != n/2*2 {
			t.Fatalf("acquired %d times, want %d", rounds, n/2*2)
		}
	}},
}

// procWakeAllocBudget caps one whole procWakeModels run: kernel and
// process construction plus the first growth of the event heap and the
// wait queues. Wakeups themselves must not allocate.
const procWakeAllocBudget = 48

// TestProcWakeAllocs pins allocation-free process switching: Sleep,
// Signal wakeups and contended Resource hand-offs schedule the wakeup
// closure bound at spawn and reuse their wait queues, so a run's
// allocation count must not grow with the number of rounds.
func TestProcWakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, m := range procWakeModels {
		t.Run(m.name, func(t *testing.T) {
			small := testing.AllocsPerRun(5, func() { m.run(t, 1_000) })
			large := testing.AllocsPerRun(5, func() { m.run(t, 10_000) })
			if large > small {
				t.Errorf("%.0f allocs at 10k rounds, %.0f at 1k: wakeups allocate", large, small)
			}
			if small > procWakeAllocBudget {
				t.Errorf("%.0f allocs per run, budget %d", small, procWakeAllocBudget)
			}
			t.Logf("%.0f allocs at 1k rounds, %.0f at 10k", small, large)
		})
	}
}

// TestLaneSteadyStateAllocs pins allocation-free lanes: once a lane's
// queue has grown to its standing depth, pushing and firing entries
// allocates nothing.
func TestLaneSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	k := NewKernel()
	fired := 0
	var l *Lane[int]
	l = NewLane(k, func(left int) {
		fired++
		if left > 0 {
			l.Schedule(20*Nanosecond, left-1)
		}
	})
	// 64 chains of fixed-delay entries keep 64 entries standing in the lane.
	round := func() {
		fired = 0
		for i := 0; i < 64; i++ {
			l.Schedule(Time(i)*Picosecond, 100)
		}
		k.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Fatalf("steady-state lane push and fire allocated %.0f times per round", allocs)
	}
	if want := 64 * 101; fired != want {
		t.Fatalf("fired %d entries per round, want %d", fired, want)
	}
}
