package sim

import "testing"

// BenchmarkKernelScheduleRun drives the kernel hot path: schedule 1e5
// events in a mixed past/future pattern and drain them. The allocs/op
// figure tracks the event free list; ns/op tracks the 4-ary heap.
func BenchmarkKernelScheduleRun(b *testing.B) {
	const events = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		fired := 0
		// A self-rescheduling chain exercises steady-state recycling: each
		// fired event schedules its successor, the way Proc.Sleep and the
		// pipe/resource timers drive the kernel in real experiments.
		var step func()
		step = func() {
			fired++
			if fired < events {
				k.Schedule(Time(fired%7)*Nanosecond, step)
			}
		}
		// Seed a modest standing population so the heap has depth.
		for j := 0; j < 64; j++ {
			k.Schedule(Time(j)*Nanosecond, func() {})
		}
		k.Schedule(0, step)
		k.Run()
		if fired != events {
			b.Fatalf("fired %d events, want %d", fired, events)
		}
	}
}

// BenchmarkKernelScheduleBurst measures the bulk schedule-then-drain
// pattern: all events queued up front, then one Run.
func BenchmarkKernelScheduleBurst(b *testing.B) {
	const events = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		fired := 0
		for j := 0; j < events; j++ {
			k.Schedule(Time(j%1024)*Nanosecond, func() { fired++ })
		}
		k.Run()
		if fired != events {
			b.Fatalf("fired %d events, want %d", fired, events)
		}
	}
}

// BenchmarkKernelCancel measures the schedule-then-cancel pattern used by
// timeout guards (arm a timer, cancel it when the response arrives).
func BenchmarkKernelCancel(b *testing.B) {
	const events = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < events; j++ {
			e := k.Schedule(Time(j%512)*Nanosecond, func() {})
			if j%2 == 0 {
				e.Cancel()
			}
		}
		k.Run()
	}
}

// BenchmarkProcSwitch measures one park/resume round trip: a process
// sleeps, the kernel fires its wakeup event and switches back into it.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSpawn measures one process's whole life: spawn, one park
// and resume, finish. Processes run in batches so that only a batch's
// worth of process stacks is live at once.
func BenchmarkProcSpawn(b *testing.B) {
	const batch = 1024
	b.ReportAllocs()
	k := NewKernel()
	body := func(p *Proc) { p.Sleep(Nanosecond) }
	for i := 0; i < b.N; i += batch {
		for j := i; j < b.N && j < i+batch; j++ {
			k.Go("p", body)
		}
		k.Run()
	}
}

// BenchmarkKernelTimerBacklog models a saturated LLC port: a short event
// every 10 ns arms a 20 µs tail-loss timer, so about 2,000 timers stand
// armed at once. "plain" schedules each timer as its own event; "lane"
// queues them on one Lane, which keeps the heap at a handful of entries.
func BenchmarkKernelTimerBacklog(b *testing.B) {
	const (
		sends   = 100_000
		gap     = 10 * Nanosecond
		timeout = 20 * Microsecond
	)
	for _, lane := range []bool{false, true} {
		name := "plain"
		if lane {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := NewKernel()
				expired := 0
				expire := func() { expired++ }
				timers := NewLane(k, func(struct{}) { expired++ })
				sent := 0
				var send func()
				send = func() {
					sent++
					if lane {
						timers.Schedule(timeout, struct{}{})
					} else {
						k.Schedule(timeout, expire)
					}
					if sent < sends {
						k.Schedule(gap, send)
					}
				}
				k.Schedule(0, send)
				k.Run()
				if expired != sends {
					b.Fatalf("%d of %d timers expired", expired, sends)
				}
			}
		})
	}
}
