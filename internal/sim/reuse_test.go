//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// refGo is Go without reuse: every process gets a new coroutine that ends
// with its body. It is the reference the reusing Go must match.
func refGo(k *Kernel, name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	p.wake = func() { next() }
	k.Schedule(0, p.wake)
	return p
}

// Steps of a random process program.
const (
	stepSleep = iota
	stepWait
	stepWake
	stepBroadcast
	stepAcquire
	stepSpawn
	numSteps
)

type procStep struct{ op, arg, n int }

// procProgram is a seeded random process program. Every step of every
// body is drawn up front, so runs under Go and under refGo execute the
// same program and may differ only if process reuse changes the schedule.
type procProgram struct {
	bodies    [][]procStep
	signals   int
	resources int
	roots     int
}

// maxSpawns bounds the spawn tree of one program run.
const maxSpawns = 400

func genProgram(seed int64) procProgram {
	rng := rand.New(rand.NewSource(seed))
	prog := procProgram{signals: 1 + rng.Intn(3), resources: 1 + rng.Intn(2), roots: 1 + rng.Intn(4)}
	nb := 2 + rng.Intn(10)
	for b := 0; b < nb; b++ {
		steps := make([]procStep, rng.Intn(9))
		for i := range steps {
			st := procStep{op: rng.Intn(numSteps)}
			switch st.op {
			case stepSleep:
				st.arg = rng.Intn(5)
			case stepWait, stepWake, stepBroadcast:
				st.arg = rng.Intn(prog.signals)
			case stepAcquire:
				st.arg, st.n = rng.Intn(prog.resources), 1+rng.Intn(2)
			case stepSpawn:
				// A body spawns only later bodies, so the tree is finite.
				if b == nb-1 {
					st = procStep{op: stepSleep, arg: 1}
				} else {
					st.arg = b + 1 + rng.Intn(nb-b-1)
				}
			}
			steps[i] = st
		}
		prog.bodies = append(prog.bodies, steps)
	}
	return prog
}

type firing struct {
	at   Time
	name string
	step int // -1 when the body returns
}

type progRun struct {
	log       []firing
	scheduled uint64
	executed  uint64
	end       Time
	spawns    int
	reused    int // spawns that got back a *Proc seen before
}

// runProgram runs prog on a fresh kernel, spawning every process through
// spawn, and records each step's (time, name) firing.
func runProgram(prog procProgram, spawn func(k *Kernel, name string, fn func(p *Proc)) *Proc) progRun {
	k := NewKernel()
	var r progRun
	seen := map[*Proc]bool{}
	goFn := func(name string, fn func(p *Proc)) {
		p := spawn(k, name, fn)
		if seen[p] {
			r.reused++
		}
		seen[p] = true
		r.spawns++
	}
	sigs := make([]*Signal, prog.signals)
	for i := range sigs {
		sigs[i] = NewSignal(k)
	}
	res := make([]*Resource, prog.resources)
	for i := range res {
		res[i] = NewResource(k, 2)
	}
	var body func(b int) func(p *Proc)
	body = func(b int) func(p *Proc) {
		return func(p *Proc) {
			held := make([]int, len(res))
			for i, st := range prog.bodies[b] {
				r.log = append(r.log, firing{p.Now(), p.Name(), i})
				switch st.op {
				case stepSleep:
					p.Sleep(Time(st.arg) * Nanosecond)
				case stepWait:
					sigs[st.arg].Wait(p)
				case stepWake:
					sigs[st.arg].Wake()
				case stepBroadcast:
					sigs[st.arg].Broadcast()
				case stepAcquire:
					res[st.arg].Acquire(p, st.n)
					held[st.arg] += st.n
				case stepSpawn:
					if r.spawns < maxSpawns {
						goFn(fmt.Sprintf("b%d.%d", st.arg, r.spawns), body(st.arg))
					}
				}
				// Never hold more than a resource's capacity: give back
				// what was taken before the next acquire could deadlock.
				for j, n := range held {
					if n >= 2 {
						res[j].Release(n)
						held[j] = 0
					}
				}
			}
			for j, n := range held {
				if n > 0 {
					res[j].Release(n)
				}
			}
			r.log = append(r.log, firing{p.Now(), p.Name(), -1})
		}
	}
	for i := 0; i < prog.roots; i++ {
		goFn(fmt.Sprintf("root%d", i), body(0))
	}
	// The pulser releases waiters for a while, so most programs run to
	// the end instead of parking every process on a signal.
	goFn("pulser", func(p *Proc) {
		for round := 0; round < 50; round++ {
			p.Sleep(3 * Nanosecond)
			for _, s := range sigs {
				s.Broadcast()
			}
		}
	})
	r.end = k.Run()
	r.scheduled, r.executed = k.Scheduled(), k.Executed()
	return r
}

func checkProgramEquivalence(t *testing.T, seed int64) progRun {
	t.Helper()
	prog := genProgram(seed)
	want := runProgram(prog, refGo)
	got := runProgram(prog, (*Kernel).Go)
	if !slices.Equal(got.log, want.log) {
		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: firing %d is %+v with reuse, %+v without", seed, i, got.log[i], want.log[i])
			}
		}
		t.Fatalf("seed %d: %d firings with reuse, %d without", seed, len(got.log), len(want.log))
	}
	if got.scheduled != want.scheduled || got.executed != want.executed || got.end != want.end {
		t.Fatalf("seed %d: scheduled/executed/end %d/%d/%v with reuse, %d/%d/%v without",
			seed, got.scheduled, got.executed, got.end, want.scheduled, want.executed, want.end)
	}
	return got
}

// TestProcReuseEquivalence runs seeded random spawn/sleep/signal/resource
// programs under the reusing Go and under refGo: the (time, name) firing
// logs, the Scheduled and Executed counts and the end time must match.
func TestProcReuseEquivalence(t *testing.T) {
	spawns, reused := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		r := checkProgramEquivalence(t, seed)
		spawns += r.spawns
		reused += r.reused
	}
	if reused*10 < spawns {
		t.Fatalf("only %d of %d spawns reused a process: the programs do not exercise reuse", reused, spawns)
	}
	t.Logf("%d spawns, %d on a reused process", spawns, reused)
}

// FuzzProcReuse is TestProcReuseEquivalence over fuzzed seeds.
func FuzzProcReuse(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkProgramEquivalence(t, seed) })
}

// TestGoReusesLastIdled checks the idle list's LIFO order: Go takes the
// process that finished last.
func TestGoReusesLastIdled(t *testing.T) {
	k := NewKernel()
	a := k.Go("a", func(p *Proc) { p.Sleep(Nanosecond) })
	b := k.Go("b", func(p *Proc) { p.Sleep(2 * Nanosecond) })
	var first, second *Proc
	var names []string
	k.Go("spawner", func(p *Proc) {
		p.Sleep(3 * Nanosecond)
		first = k.Go("c", func(p *Proc) { names = append(names, p.Name()) })
		second = k.Go("d", func(p *Proc) { names = append(names, p.Name()) })
	})
	k.Run()
	if first != b || second != a {
		t.Fatalf("Go reused %p then %p, want b (%p, idled last) then a (%p)", first, second, b, a)
	}
	if !slices.Equal(names, []string{"c", "d"}) {
		t.Fatalf("reused processes ran as %v, want [c d]", names)
	}
}

func isIdle(k *Kernel, p *Proc) bool { return slices.Contains(k.idle, p) }

// TestPanickedProcNotReused checks that a body that panics or calls
// runtime.Goexit ends its process for good, and that Go works after the
// caller recovers.
func TestPanickedProcNotReused(t *testing.T) {
	k := NewKernel()
	done := k.Go("done", func(p *Proc) {})
	boom := k.Go("boom", func(p *Proc) {
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
	if isIdle(k, boom) {
		t.Fatal("the panicked process is on the idle list")
	}
	if !isIdle(k, done) {
		t.Fatal("the process that returned is not on the idle list")
	}
	ran := map[string]bool{}
	for _, name := range []string{"after1", "after2"} {
		if p := k.Go(name, func(p *Proc) { p.Sleep(Nanosecond); ran[p.Name()] = true }); p == boom {
			t.Fatalf("Go(%q) reused the panicked process", name)
		}
	}
	k.Run()
	if !ran["after1"] || !ran["after2"] {
		t.Fatalf("processes spawned after the recovered panic ran: %v", ran)
	}
	if len(k.idle) != 0 {
		t.Fatalf("%d idle processes after Run drained", len(k.idle))
	}

	// Goexit unwinds the goroutine that runs the kernel instead.
	k = NewKernel()
	quitter := k.Go("quitter", func(p *Proc) {
		p.Sleep(Nanosecond)
		runtime.Goexit()
	})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		k.Run()
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("Goexit in a process hung the goroutine running the kernel")
	}
	if isIdle(k, quitter) {
		t.Fatal("the process that called Goexit is on the idle list")
	}
	if k.Go("after", func(p *Proc) {}) == quitter {
		t.Fatal("Go reused the process that called Goexit")
	}
	k.Run()
}

// spawnWaves spawns waves of short processes from a driver, so later waves
// run on processes idled by earlier ones, and reports how many spawns got
// a process back.
func spawnWaves(k *Kernel, waves, perWave int) *int {
	reused := 0
	seen := map[*Proc]bool{}
	body := func(p *Proc) { p.Sleep(Nanosecond) }
	k.Go("driver", func(p *Proc) {
		for w := 0; w < waves; w++ {
			for i := 0; i < perWave; i++ {
				c := k.Go("wave", body)
				if seen[c] {
					reused++
				}
				seen[c] = true
			}
			p.Sleep(2 * Nanosecond)
		}
	})
	return &reused
}

// TestIdleDrainedWhenRunReturns checks that Run, RunUntil and RunBefore
// end every idle coroutine before they return: the idle list is empty
// and no coroutine goroutine is left behind.
func TestIdleDrainedWhenRunReturns(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(k *Kernel)
	}{
		{"Run", func(k *Kernel) { k.Run() }},
		{"RunUntil", func(k *Kernel) { k.RunUntil(5 * Nanosecond); k.RunUntil(Second) }},
		{"RunBefore", func(k *Kernel) {
			for k.Pending() > 0 {
				at, _ := k.NextAt()
				k.RunBefore(at + 3*Nanosecond)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			reused := spawnWaves(k, 20, 8)
			tc.run(k)
			if *reused == 0 {
				t.Fatal("no spawn reused a process")
			}
			if len(k.idle) != 0 {
				t.Fatalf("%d idle processes after %s returned", len(k.idle), tc.name)
			}
			// A stopped coroutine's goroutine has exited by the time stop
			// returns; allow the scheduler a moment all the same.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after %s returned, %d before: idle coroutines outlive the run", n, tc.name, base)
			}
		})
	}
}

// procSpawnAllocBudget caps the allocations of one spawn-and-finish of a
// short process once the idle list and the event free list are warm.
const procSpawnAllocBudget = 0

// TestProcSpawnAllocs spawns and finishes 1,000 short processes in
// sequence: after warm-up, each runs on the process the previous one
// idled, so a spawn allocates nothing.
func TestProcSpawnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	k := NewKernel()
	body := func(p *Proc) { p.Sleep(Nanosecond) }
	var allocs float64
	k.Go("driver", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() {
			k.Go("short", body)
			p.Sleep(2 * Nanosecond)
		})
	})
	k.Run()
	if allocs > procSpawnAllocBudget {
		t.Fatalf("%.0f allocations per spawn, budget %d", allocs, procSpawnAllocBudget)
	}
}
