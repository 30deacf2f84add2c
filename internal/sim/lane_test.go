package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// laneObs is what an observer of the kernel sees: one record per fired
// event (id >= 0) and one after each driver window (id == -1).
type laneObs struct {
	id        int
	now       Time
	pending   int
	scheduled uint64
	executed  uint64
}

// laneModel replays a choice stream against a fresh kernel. Callbacks and
// the window driver read the stream to schedule plain events, push onto
// three in-order streams, cancel, inject and pick RunBefore/RunUntil
// windows. With lanes=false every stream entry is a plain ScheduleAt, the
// reference the lanes must reproduce exactly. Each event reads at most two
// choices, so a stream of n bytes schedules at most n events.
func laneModel(choices []byte, lanes bool) []laneObs {
	k := NewKernel()
	next := func() int {
		if len(choices) == 0 {
			return -1
		}
		c := int(choices[0])
		choices = choices[1:]
		return c
	}
	var obs []laneObs
	record := func(id int) {
		obs = append(obs, laneObs{id, k.Now(), k.Pending(), k.Scheduled(), k.Executed()})
	}

	type livePlain struct {
		id int
		e  *Event
	}
	var live []livePlain // plain events neither fired nor cancelled
	drop := func(id int) {
		for i, l := range live {
			if l.id == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	ids := 0
	var act func()
	fire := func(id int) {
		record(id)
		act()
	}
	plain := func(e func(func()) *Event) {
		id := ids
		ids++
		live = append(live, livePlain{id, e(func() { drop(id); fire(id) })})
	}

	const streams = 3
	var last [streams]Time
	var ls [streams]*Lane[int]
	for i := range ls {
		ls[i] = NewLane(k, fire)
	}
	push := func(s int, step Time) {
		at := max(k.Now(), last[s]) + step
		last[s] = at
		id := ids
		ids++
		if lanes {
			ls[s].ScheduleAt(at, id)
		} else {
			k.ScheduleAt(at, func() { fire(id) })
		}
	}

	act = func() {
		for n := 0; n < 2; n++ {
			c := next()
			if c < 0 {
				return
			}
			arg := c >> 3
			switch c & 7 {
			case 0, 1:
				plain(func(fn func()) *Event { return k.Schedule(Time(arg%8)*Nanosecond, fn) })
			case 2, 3, 4:
				push(arg%streams, Time(arg/streams%4)*Nanosecond)
			case 5:
				t := k.Now() + Time(arg%4)*Nanosecond
				from := max(0, k.Now()-Time(arg/4)*Nanosecond)
				plain(func(fn func()) *Event { return k.InjectAt(t, from, fn) })
			case 6:
				if len(live) > 0 {
					l := live[arg%len(live)]
					drop(l.id)
					l.e.Cancel()
				}
			}
		}
	}

	for i := 0; i < 4; i++ {
		act()
	}
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
			k.RunBefore(at + Time(c>>1)*Nanosecond)
		default:
			k.RunUntil(at + Time(c>>1)*Nanosecond)
		}
		record(-1)
	}
	return obs
}

// checkLaneOrder fails t when the lane run and the plain reference differ.
func checkLaneOrder(t *testing.T, choices []byte) {
	t.Helper()
	got := laneModel(choices, true)
	want := laneModel(choices, false)
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	at := func(o []laneObs) string {
		if i < len(o) {
			return fmt.Sprintf("%+v", o[i])
		}
		return "end of run"
	}
	t.Fatalf("lane run diverges from plain events at observation %d: lanes %s, plain %s", i, at(got), at(want))
}

// TestLaneOrderEquivalence checks that moving in-order streams onto lanes
// changes nothing an observer can see: firing order, clock, Pending,
// Scheduled and Executed match the run that schedules every entry as a
// plain event, through cancellations, injected events and windowed runs.
func TestLaneOrderEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		choices := make([]byte, 64+rng.Intn(1024))
		rng.Read(choices)
		checkLaneOrder(t, choices)
	}
}

func FuzzLaneOrder(f *testing.F) {
	f.Add([]byte{2, 10, 3, 11, 0, 4, 5, 13, 6, 1, 9, 2, 2, 2})
	f.Add([]byte{4, 4, 4, 4, 0, 0, 6, 6, 5, 5, 7, 3, 3})
	f.Fuzz(func(t *testing.T, choices []byte) {
		if len(choices) > 4096 {
			choices = choices[:4096]
		}
		checkLaneOrder(t, choices)
	})
}

func TestLaneScheduleAtOutOfOrderPanics(t *testing.T) {
	k := NewKernel()
	l := NewLane(k, func(int) {})
	l.ScheduleAt(10*Nanosecond, 1)
	l.ScheduleAt(10*Nanosecond, 2) // equal times are in order
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt earlier than the lane's last entry did not panic")
		}
	}()
	l.ScheduleAt(9*Nanosecond, 3)
}

// TestLaneReuseAfterRecycles drains a lane, churns the kernel's event free
// list, and uses the lane again: its heap slot must never have been handed
// to a plain event.
func TestLaneReuseAfterRecycles(t *testing.T) {
	k := NewKernel()
	var got []int
	l := NewLane(k, func(v int) { got = append(got, v) })
	l.Schedule(Nanosecond, 1)
	l.Schedule(2*Nanosecond, 2)
	k.Run()
	plainFired := 0
	for i := 0; i < 3*maxFree; i++ {
		k.Schedule(Time(i%5)*Nanosecond, func() { plainFired++ })
	}
	k.Run()
	l.Schedule(3*Nanosecond, 3)
	k.Schedule(3*Nanosecond, func() { got = append(got, -3) })
	l.Schedule(3*Nanosecond, 4)
	k.Schedule(Nanosecond, func() { got = append(got, -1) })
	k.Run()
	if want := []int{1, 2, -1, 3, -3, 4}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if plainFired != 3*maxFree || k.Pending() != 0 {
		t.Fatalf("plain fired %d of %d, %d pending", plainFired, 3*maxFree, k.Pending())
	}
}

// injectModel replays a seeded sequence of windows against a fresh kernel,
// the way the shard runtime drives one: local events fire and schedule more
// local events, and between windows a batch of remote deliveries arrives
// in the flush's order, each sent at a time inside the window just run.
// With lanes=false every delivery is a Kernel.InjectAt event; with
// lanes=true each of four streams carries its deliveries on a lane through
// Lane.InjectAt. Send and delivery times come from a few nanoseconds, so
// deliveries tie on (at, schedAt) with each other and with local events.
func injectModel(seed int64, lanes bool) []laneObs {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	var obs []laneObs
	record := func(id int) {
		obs = append(obs, laneObs{id, k.Now(), k.Pending(), k.Scheduled(), k.Executed()})
	}
	const streams, window = 4, 4 * Nanosecond
	ids := 0
	var local func()
	local = func() {
		id := ids
		ids++
		record(id)
		if rng.Intn(3) > 0 {
			k.Schedule(Time(rng.Intn(6))*Nanosecond, local)
		}
	}
	var ls [streams]*Lane[int]
	for i := range ls {
		ls[i] = NewLane(k, record)
	}
	type delivery struct {
		at, from Time
		stream   int
	}
	var last [streams]Time // each stream delivers in non-decreasing time
	for i := 0; i < 3; i++ {
		k.Schedule(Time(i)*Nanosecond, local)
	}
	for start := Time(0); start < 200*Nanosecond; start += window {
		k.RunBefore(start + window)
		var batch []delivery
		for s := 0; s < streams; s++ {
			for n := rng.Intn(4); n > 0; n-- {
				from := start + Time(rng.Intn(4))*Nanosecond
				at := max(last[s], from+window+Time(rng.Intn(3))*Nanosecond)
				last[s] = at
				batch = append(batch, delivery{at, from, s})
			}
		}
		// The flush's order: (at, from, stream, send order); each stream's
		// own deliveries stay in send order.
		slices.SortStableFunc(batch, func(a, b delivery) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			if a.from != b.from {
				return int(a.from - b.from)
			}
			return a.stream - b.stream
		})
		for _, d := range batch {
			id := ids
			ids++
			if lanes {
				ls[d.stream].InjectAt(d.at, d.from, id)
			} else {
				k.InjectAt(d.at, d.from, func() { record(id) })
			}
		}
		record(-1)
	}
	k.Run()
	return obs
}

// TestLaneInjectAtMatchesKernelInjectAt checks that a delivery injected on
// a lane fires exactly where the same delivery injected as a plain event
// would: same order among ties on (at, schedAt), same clock and counters.
func TestLaneInjectAtMatchesKernelInjectAt(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got, want := injectModel(seed, true), injectModel(seed, false)
		if slices.Equal(got, want) {
			continue
		}
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("seed %d: lane injection diverges from Kernel.InjectAt at observation %d of %d/%d",
			seed, i, len(got), len(want))
	}
}

func TestLaneInjectAtOutOfOrderPanics(t *testing.T) {
	k := NewKernel()
	l := NewLane(k, func(int) {})
	l.InjectAt(10*Nanosecond, 4*Nanosecond, 1)
	l.InjectAt(10*Nanosecond, 4*Nanosecond, 2) // equal keys are in order
	defer func() {
		if recover() == nil {
			t.Fatal("InjectAt sent before the lane's last same-instant entry did not panic")
		}
	}()
	l.InjectAt(10*Nanosecond, 3*Nanosecond, 3)
}
