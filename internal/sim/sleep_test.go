//go:build go1.23

package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"thymesisflow/internal/trace"
)

// parkSleep is Sleep without the fast path: it always queues the wake-up
// and parks. It is the reference the fast path must match.
func parkSleep(p *Proc, d Time) {
	if d < 0 {
		d = 0
	}
	p.k.Schedule(d, p.wake)
	p.park()
}

// spanCounter is a tracer that counts the kernel's dispatch spans.
type spanCounter struct{ spans int }

func (c *spanCounter) Txn(string, string, int64, int64, []trace.Stage) {}
func (c *spanCounter) Span(string, string, int64, int64)               { c.spans++ }
func (c *spanCounter) Instant(string, string, int64)                   {}
func (c *spanCounter) Counter(string, string, int64, float64)          {}

// sleepObs is what an observer of the kernel sees: one record per fired
// event (id >= 0), per process step (id < -1) and after each driver window
// (id == -1).
type sleepObs struct {
	id        int
	now       Time
	pending   int
	scheduled uint64
	executed  uint64
	spans     int
}

// sleepRun is one sleepModel run: its observations, and how many sleeps
// met the fast path's conditions (counted on either path).
type sleepRun struct {
	obs    []sleepObs
	sleeps int
	fast   int
}

// maxSleepers bounds the processes one sleepModel run spawns; with more,
// another sleeper's wake-up is nearly always next and the fast path rare.
const maxSleepers = 3

// sleepModel replays a choice stream against a fresh kernel. Processes
// sleep 0-3 ns at a time through sleep; each fired event and some process
// steps read one choice to schedule plain events, push onto a lane, inject deliveries
// whose origin lies before or after now, cancel, spawn sleepers, attach or
// detach a tracer and call Stop; the driver reads it to pick Run, RunUntil
// and RunBefore windows that often end exactly at a wake-up. Every step
// reads at least one choice, so the run ends when the stream does.
func sleepModel(choices []byte, sleep func(p *Proc, d Time)) sleepRun {
	k := NewKernel()
	next := func() int {
		if len(choices) == 0 {
			return -1
		}
		c := int(choices[0])
		choices = choices[1:]
		return c
	}
	var r sleepRun
	tr := &spanCounter{}
	record := func(id int) {
		r.obs = append(r.obs, sleepObs{id, k.Now(), k.Pending(), k.Scheduled(), k.Executed(), tr.spans})
	}

	var live []*Event // plain events neither fired nor cancelled
	drop := func(e *Event) {
		if i := slices.Index(live, e); i >= 0 {
			live = slices.Delete(live, i, i+1)
		}
	}
	ids := 0
	var act func(c int)
	actNext := func() {
		if c := next(); c >= 0 {
			act(c)
		}
	}
	plain := func(e func(fn func()) *Event) {
		id := ids
		ids++
		var ev *Event
		ev = e(func() { drop(ev); record(id); actNext() })
		live = append(live, ev)
	}
	var laneLast Time
	lane := NewLane(k, func(id int) { record(id); actNext() })
	sleepers := 0
	var body func(p *Proc)
	act = func(c int) {
		arg := c >> 3
		switch c & 7 {
		case 0:
			plain(func(fn func()) *Event { return k.Schedule(Time(arg%16)*Nanosecond, fn) })
		case 1:
			at := max(k.Now(), laneLast) + Time(arg%3)*Nanosecond
			laneLast = at
			lane.ScheduleAt(at, ids)
			ids++
		case 2:
			t := k.Now() + Time(arg%8)*Nanosecond
			from := max(0, t-Time(arg/8%4)*Nanosecond)
			plain(func(fn func()) *Event { return k.InjectAt(t, from, fn) })
		case 3:
			if len(live) > 0 {
				e := live[arg%len(live)]
				drop(e)
				e.Cancel()
			}
		case 4:
			if sleepers < maxSleepers {
				sleepers++
				k.Go(fmt.Sprintf("s%d", sleepers), body)
			}
		case 5:
			if arg%4 == 0 {
				k.SetTracer(tr)
			} else {
				k.SetTracer(nil)
			}
		case 6:
			k.Stop()
		}
	}
	body = func(p *Proc) {
		id := -2 - sleepers
		for {
			c := next()
			if c < 0 {
				return
			}
			record(id)
			if c&3 == 3 {
				act(c >> 2)
			}
			d := Time(c>>4%4) * Nanosecond
			r.sleeps++
			if at := k.now + d; at < k.end && !k.stopped && k.tracer == nil && k.wakesFirst(at) {
				r.fast++
			}
			sleep(p, d)
			record(id)
		}
	}

	sleepers++
	k.Go("s1", body)
	actNext()
	for {
		at, ok := k.NextAt()
		if !ok {
			break
		}
		c := next()
		switch {
		case c < 0:
			k.Run()
		case c&1 == 0:
			k.RunBefore(at + Time(c>>1%16)*Nanosecond)
		default:
			k.RunUntil(at + Time(c>>1%16)*Nanosecond)
		}
		record(-1)
	}
	return r
}

// checkSleepFastPath fails t when the fast-path run and the parking
// reference differ, and returns the fast-path run.
func checkSleepFastPath(t *testing.T, choices []byte) sleepRun {
	t.Helper()
	got := sleepModel(choices, (*Proc).Sleep)
	want := sleepModel(choices, parkSleep)
	if slices.Equal(got.obs, want.obs) {
		return got
	}
	i := 0
	for i < len(got.obs) && i < len(want.obs) && got.obs[i] == want.obs[i] {
		i++
	}
	at := func(o []sleepObs) string {
		if i < len(o) {
			return fmt.Sprintf("%+v", o[i])
		}
		return "end of run"
	}
	t.Fatalf("fast-path run diverges from parking sleeps at observation %d: fast %s, parking %s",
		i, at(got.obs), at(want.obs))
	return got
}

// TestSleepFastPathEquivalence checks that Sleep's fast path changes
// nothing an observer can see: firing order, clock, Pending, Scheduled,
// Executed and the tracer's dispatch spans match a run whose every sleep
// parks, through same-instant ties, injected deliveries, cancelled roots,
// lane heads, Stop, mid-run tracers and windowed runs.
func TestSleepFastPathEquivalence(t *testing.T) {
	sleeps, fast := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		choices := make([]byte, 64+rng.Intn(1024))
		rng.Read(choices)
		r := checkSleepFastPath(t, choices)
		sleeps += r.sleeps
		fast += r.fast
	}
	if fast*20 < sleeps || fast*20 > 19*sleeps {
		t.Fatalf("%d of %d sleeps met the fast path: the streams do not exercise both paths", fast, sleeps)
	}
	t.Logf("%d sleeps, %d on the fast path", sleeps, fast)
}

func FuzzSleepFastPath(f *testing.F) {
	f.Add([]byte{0x21, 0x01, 0x08, 0x0c, 0x31, 0x0d, 0x02, 0x41, 0x03, 0x00, 0x10})
	f.Add([]byte{0x0d, 0x0b, 0x09, 0x51, 0x61, 0x05, 0x06, 0x0e, 0x22, 0x03, 0x11, 0x13})
	f.Fuzz(func(t *testing.T, choices []byte) {
		if len(choices) > 4096 {
			choices = choices[:4096]
		}
		checkSleepFastPath(t, choices)
	})
}

// TestSleepFastPathAllocs checks that a lone sleeper, whose wake-up is
// always next, neither allocates nor queues an event: the free list stays
// empty, so no wake-up event was ever taken or returned.
func TestSleepFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const runs = 1000
	k := NewKernel()
	var allocs float64
	var queued int
	k.Go("solo", func(p *Proc) {
		allocs = testing.AllocsPerRun(runs, func() { p.Sleep(Nanosecond) })
		queued = len(k.free) + len(k.pq)
	})
	k.Run()
	if allocs != 0 || queued != 0 {
		t.Fatalf("a lone sleeper allocated %.0f times per sleep and left %d events queued or recycled", allocs, queued)
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	if want := uint64(1 + runs + 1); k.Scheduled() != want || k.Executed() != want {
		t.Fatalf("scheduled/executed %d/%d, want %d: elided wake-ups must count as events",
			k.Scheduled(), k.Executed(), want)
	}
	if want := Time(runs+1) * Nanosecond; k.Now() != want {
		t.Fatalf("clock %v after %d sleeps, want %v", k.Now(), runs+1, want)
	}
}
