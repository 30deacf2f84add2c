package phy

import (
	"math/rand"
	"testing"

	"thymesisflow/internal/sim"
)

func TestChannelRate(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "c", LanesPerChannel, 0, FaultConfig{})
	if c.Rate() != ChannelBytesPerSec {
		t.Fatalf("4-lane rate = %v, want %v", c.Rate(), float64(ChannelBytesPerSec))
	}
	c8 := NewChannel(k, "c8", 8, 0, FaultConfig{})
	if c8.Rate() != 2*ChannelBytesPerSec {
		t.Fatalf("8-lane rate = %v, want %v", c8.Rate(), 2*float64(ChannelBytesPerSec))
	}
}

func TestChannelDeliveryLatency(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "c", LanesPerChannel, 2*SerdesCrossing, FaultConfig{})
	var at sim.Time
	c.OnDeliver(func(d Delivery) { at = k.Now() })
	c.Transmit("x", 512)
	k.Run()
	ser := sim.DurationForBytes(512, ChannelBytesPerSec)
	want := ser + 2*SerdesCrossing
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestChannelSerializes(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "c", LanesPerChannel, 0, FaultConfig{})
	var times []sim.Time
	c.OnDeliver(func(d Delivery) { times = append(times, k.Now()) })
	c.Transmit(1, 1024)
	c.Transmit(2, 1024)
	k.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[1] != 2*times[0] {
		t.Fatalf("no serialization: %v", times)
	}
}

func TestChannelDropAndCorrupt(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "c", LanesPerChannel, 0, FaultConfig{DropProb: 0.3, CorruptProb: 0.3, Seed: 5})
	delivered, corrupted := 0, 0
	c.OnDeliver(func(d Delivery) {
		delivered++
		if d.Corrupted {
			corrupted++
		}
	})
	const n = 1000
	for i := 0; i < n; i++ {
		c.Transmit(i, 64)
	}
	k.Run()
	sent, dropped, corr := c.Stats()
	if sent != n {
		t.Fatalf("sent = %d", sent)
	}
	if delivered+int(dropped) != n {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, dropped, n)
	}
	if dropped < 200 || dropped > 400 {
		t.Fatalf("dropped = %d, want ~300", dropped)
	}
	if corrupted != int(corr) || corrupted == 0 {
		t.Fatalf("corrupted = %d (stat %d)", corrupted, corr)
	}
}

// TestFaultScheduleWindows injects losses only inside a scripted window:
// traffic before and after the window must pass untouched.
func TestFaultScheduleWindows(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "c", LanesPerChannel, 0, FaultConfig{})
	c.SetSchedule(FaultSchedule{
		Base: FaultConfig{Seed: 9},
		Windows: []Window{
			{From: 10 * sim.Microsecond, To: 20 * sim.Microsecond, DropProb: 1},
		},
	})
	delivered := 0
	c.OnDeliver(func(d Delivery) { delivered++ })
	// One frame per microsecond for 30 us; serialization of 64B is negligible.
	for i := 0; i < 30; i++ {
		k.Schedule(sim.Time(i)*sim.Microsecond, func() { c.Transmit("f", 64) })
	}
	k.Run()
	sent, dropped, _ := c.Stats()
	if sent != 30 {
		t.Fatalf("sent = %d", sent)
	}
	if dropped != 10 {
		t.Fatalf("dropped = %d, want exactly the 10 in-window frames", dropped)
	}
	if delivered != 20 {
		t.Fatalf("delivered = %d, want 20", delivered)
	}
}

// TestFaultScheduleDeterministic replays the same schedule twice and
// requires identical per-frame outcomes.
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() []bool {
		k := sim.NewKernel()
		c := NewChannel(k, "c", LanesPerChannel, 0, FaultConfig{})
		c.SetSchedule(FaultSchedule{
			Base: FaultConfig{DropProb: 0.1, CorruptProb: 0.1, Seed: 42},
			Windows: []Window{
				{From: 5 * sim.Microsecond, To: 15 * sim.Microsecond, DropProb: 0.5, CorruptProb: 0.3},
			},
		})
		var outcomes []bool
		c.OnDeliver(func(d Delivery) { outcomes = append(outcomes, d.Corrupted) })
		for i := 0; i < 200; i++ {
			k.Schedule(sim.Time(i)*100*sim.Nanosecond, func() { c.Transmit("f", 64) })
		}
		k.Run()
		return outcomes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs between identical runs", i)
		}
	}
}

// TestScheduleAtPicksFirstMatch documents overlapping-window resolution.
func TestScheduleAtPicksFirstMatch(t *testing.T) {
	s := FaultSchedule{
		Base: FaultConfig{DropProb: 0.01},
		Windows: []Window{
			{From: 0, To: 10, DropProb: 0.5},
			{From: 5, To: 20, DropProb: 0.9},
		},
	}
	if got := s.At(7).DropProb; got != 0.5 {
		t.Fatalf("At(7).DropProb = %v, want first window's 0.5", got)
	}
	if got := s.At(15).DropProb; got != 0.9 {
		t.Fatalf("At(15).DropProb = %v", got)
	}
	if got := s.At(25).DropProb; got != 0.01 {
		t.Fatalf("At(25).DropProb = %v, want base", got)
	}
}

func TestTransmitWithoutReceiverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k := sim.NewKernel()
	NewChannel(k, "c", 4, 0, FaultConfig{}).Transmit(1, 64)
}

func TestLatencyBudgetMatchesPaper(t *testing.T) {
	// 4 FPGA-stack crossings + 6 serDES crossings = 950 ns (Section V).
	total := 4*FPGAStackCrossing + 6*SerdesCrossing
	if total != 950*sim.Nanosecond {
		t.Fatalf("latency budget = %v, want 950ns", total)
	}
}

// eagerFaults is a reference fault model that builds its PRNG at
// construction and rebuilds it at every reset, rather than on first draw.
type eagerFaults struct {
	faults   FaultConfig
	schedule *FaultSchedule
	rng      *rand.Rand
}

func newEagerFaults(f FaultConfig) *eagerFaults {
	return &eagerFaults{faults: f, rng: rand.New(rand.NewSource(f.Seed))}
}

func (e *eagerFaults) setFaults(f FaultConfig) {
	e.faults, e.schedule = f, nil
	e.rng = rand.New(rand.NewSource(f.Seed))
}

func (e *eagerFaults) setSchedule(s FaultSchedule) {
	e.faults, e.schedule = s.Base, &s
	e.rng = rand.New(rand.NewSource(s.Base.Seed))
}

// outcome draws one frame's fate exactly as TransmitAux does.
func (e *eagerFaults) outcome(now sim.Time) frameOutcome {
	f := e.faults
	if e.schedule != nil {
		f = e.schedule.At(now)
	}
	if f.DropProb > 0 && e.rng.Float64() < f.DropProb {
		return frameDropped
	}
	if f.CorruptProb > 0 && e.rng.Float64() < f.CorruptProb {
		return frameCorrupted
	}
	return frameClean
}

type frameOutcome int

const (
	frameDropped frameOutcome = iota
	frameClean
	frameCorrupted
)

// TestLazyFaultStreamMatchesEager sends a seeded frame sequence through a
// channel whose fault regime is reset mid-traffic, and requires every
// frame's drop and corrupt outcome to match the eager reference.
func TestLazyFaultStreamMatchesEager(t *testing.T) {
	const frames = 1000
	const gap = 10 * sim.Nanosecond // frame i leaves at i*gap
	sched := FaultSchedule{
		Base: FaultConfig{DropProb: 0.05, CorruptProb: 0.1, Seed: 11},
		Windows: []Window{
			{From: 650 * gap, To: 700 * gap, DropProb: 0.6, CorruptProb: 0.5},
			{From: 900 * gap, To: 950 * gap, DropProb: 1},
		},
	}
	type reset struct {
		at    int // frame index the reset precedes
		apply func(*Channel, *eagerFaults)
	}
	setFaults := func(f FaultConfig) func(*Channel, *eagerFaults) {
		return func(c *Channel, e *eagerFaults) { c.SetFaults(f); e.setFaults(f) }
	}
	setSchedule := func(s FaultSchedule) func(*Channel, *eagerFaults) {
		return func(c *Channel, e *eagerFaults) { c.SetSchedule(s); e.setSchedule(s) }
	}
	cases := []struct {
		name    string
		initial FaultConfig
		resets  []reset
	}{
		{"static", FaultConfig{DropProb: 0.2, CorruptProb: 0.2, Seed: 5}, nil},
		{"mid-traffic", FaultConfig{DropProb: 0.2, CorruptProb: 0.2, Seed: 5}, []reset{
			{300, setFaults(FaultConfig{DropProb: 0.1, CorruptProb: 0.4, Seed: 9})},
			{500, setFaults(FaultConfig{Seed: 9})}, // fault-free stretch, no draws
			{550, setFaults(FaultConfig{DropProb: 0.3, Seed: 9})},
			{600, setSchedule(sched)},
			{800, setSchedule(sched)}, // same schedule again restarts its stream
		}},
		{"schedule-before-first-frame", FaultConfig{Seed: 3}, []reset{
			{0, setSchedule(sched)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			c := NewChannel(k, "c", LanesPerChannel, 0, tc.initial)
			ref := newEagerFaults(tc.initial)
			got := make([]frameOutcome, frames) // zero value: dropped
			want := make([]frameOutcome, frames)
			c.OnDeliver(func(d Delivery) {
				got[d.Payload.(int)] = frameClean
				if d.Corrupted {
					got[d.Payload.(int)] = frameCorrupted
				}
			})
			for i := 0; i < frames; i++ {
				k.ScheduleAt(sim.Time(i)*gap, func() {
					for _, r := range tc.resets {
						if r.at == i {
							r.apply(c, ref)
						}
					}
					want[i] = ref.outcome(k.Now())
					c.Transmit(i, 64)
				})
			}
			k.Run()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("frame %d: outcome %d, eager reference %d", i, got[i], want[i])
				}
			}
			_, dropped, corrupted := c.Stats()
			if dropped == 0 || corrupted == 0 {
				t.Fatalf("dropped %d, corrupted %d: the sequence exercises no faults", dropped, corrupted)
			}
		})
	}
}

// TestFaultFreeChannelDrawsNothing checks that a link configured without
// faults never builds its PRNG.
func TestFaultFreeChannelDrawsNothing(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "c", LanesPerChannel, 0, FaultConfig{Seed: 7})
	c.OnDeliver(func(Delivery) {})
	for i := 0; i < 1000; i++ {
		c.Transmit(i, 64)
	}
	k.Run()
	if c.rng != nil {
		t.Fatal("fault-free channel built its PRNG")
	}
}

// BenchmarkNewLink measures the construction cost of one bidirectional
// link (two channels), which every attach pays.
func BenchmarkNewLink(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	for i := 0; i < b.N; i++ {
		NewLink(k, "l", LanesPerChannel, SerdesCrossing, FaultConfig{Seed: int64(i)})
	}
}
