// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator or the control plane for a fixed
// wall-clock budget, checks that the outputs are correct, prints a report,
// and ends with one JSON line:
//
//	bash perfbench/run.sh --workload rack --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON holds the end-to-end metrics, measured with every
// tracing path off. With --trace 1 it holds the per-layer metrics of a
// traced run (CPU profile, latency attribution, saga tracing and the
// benchmark's own call spans), plus the tracing overhead against an
// untraced half of the same run. README.md describes the workloads and the
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the figures in README.md were taken with; pass
// another to check a claim on held-out inputs.
const defaultSeed = 1

// minIterations is the fewest timed iterations a phase runs, whatever the
// budget, so every run can compare two iterations' outputs.
const minIterations = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	spansDir string
}

func main() {
	o := options{sz: fullSizes, spansDir: ".bench_build/spans"}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds to measure for")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	res, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one timed iteration of a workload produced.
type outcome struct {
	ops, failed int64
	// digest hashes every simulated number the iteration produced. It is a
	// function of the seed alone: iterations, runs and shard counts agree.
	digest string
	// host holds host timings taken inside the run, per call.
	host map[string][]float64
	// layer holds this iteration's per-layer counters and the simulated
	// system's results.
	layer map[string]float64
}

func newOutcome() *outcome {
	return &outcome{host: map[string][]float64{}, layer: map[string]float64{}}
}

// instance is one set-up copy of a workload's world and inputs.
type instance interface {
	// run is the timed part: it drives the layers and collects outputs.
	run() (*outcome, error)
	// check verifies the outputs and reads the per-layer counters; it is
	// not timed. A returned error marks the run incorrect.
	check(out *outcome) error
}

// workload is one named benchmark input.
type workload struct {
	name string
	// setup builds the world and inputs from the seed; log is nil unless
	// the run is traced.
	setup func(seed int64, sz sizes, log *spanLog) (instance, error)
	// coldSetup marks a workload that builds its state inside every call:
	// its first, cold pass is its set-up, timed as setup_s and left out of
	// the timed iterations.
	coldSetup bool
	// report prints the workload's own headline numbers.
	report func(w io.Writer, ph *phase)
}

var workloads = []workload{
	{name: "rack", setup: setupRack, report: reportDatapath},
	{name: "link-saturate", setup: setupSaturate, report: reportDatapath},
	{name: "figures", setup: setupFigures, coldSetup: true, report: reportFigures},
	{name: "churn", setup: setupChurn, report: reportChurn},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// phase aggregates one measured stretch of a run.
type phase struct {
	setupS, runS, opsPerS []float64
	ops, failed           int64
	timedOps              int64
	mallocs               uint64
	gcCycles              uint32
	gcPauseNS             uint64
	wall                  time.Duration
	first, last           *outcome
	host                  map[string][]float64
	log                   *spanLog // the last iteration's spans (traced phases)
	checkErr              error
}

// runPhase sets up and runs iterations of w until budget has passed (and at
// least minIterations timed ones), checking every iteration's outputs.
func runPhase(w *workload, o options, traced bool, budget time.Duration) (*phase, error) {
	ph := &phase{host: map[string][]float64{}}
	fail := func(err error) {
		if ph.checkErr == nil {
			ph.checkErr = err
		}
	}
	start := time.Now()
	timed := 0
	for i := 0; timed < minIterations || time.Since(start) < budget; i++ {
		var log *spanLog
		if traced {
			log = newSpanLog()
		}
		runtime.GC()
		t0 := time.Now()
		inst, err := w.setup(o.seed, o.sz, log)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setup := time.Since(t0).Seconds()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t1 := time.Now()
		out, err := inst.run()
		d := time.Since(t1)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := inst.check(out); err != nil {
			fail(fmt.Errorf("%s iteration %d: %w", w.name, i, err))
		}
		if ph.first == nil {
			ph.first = out
		} else if out.digest != ph.first.digest {
			fail(fmt.Errorf("%s iteration %d: sim_digest %s differs from the first iteration's %s",
				w.name, i, out.digest, ph.first.digest))
		}
		ph.ops += out.ops
		ph.failed += out.failed
		if w.coldSetup && i == 0 {
			ph.setupS = append(ph.setupS, d.Seconds())
			continue
		}
		if !w.coldSetup {
			ph.setupS = append(ph.setupS, setup)
		}
		timed++
		ph.runS = append(ph.runS, d.Seconds())
		ph.opsPerS = append(ph.opsPerS, float64(out.ops)/d.Seconds())
		ph.timedOps += out.ops
		ph.mallocs += m1.Mallocs - m0.Mallocs
		ph.gcCycles += m1.NumGC - m0.NumGC
		ph.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		ph.wall += d
		for k, v := range out.host {
			ph.host[k] = append(ph.host[k], v...)
		}
		ph.last = out
		ph.log = log
	}
	return ph, nil
}

// run measures one workload and returns the result line.
func run(w io.Writer, o options) (*result, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	fmt.Fprintf(w, "perfbench: workload %s, seed %d, %gs, trace %v\n", wl.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "host: %s\n", hostLabel(wl.name, o.sz))
	if !o.trace {
		ph, err := runPhase(wl, o, false, budget)
		if err != nil {
			return nil, err
		}
		live, err := meanLiveHeap(wl, o)
		if err != nil {
			return nil, err
		}
		values := map[string]float64{
			"setup_s":       median(ph.setupS),
			"ops_per_s":     median(ph.opsPerS),
			"allocs_per_op": ratio(float64(ph.mallocs), float64(ph.timedOps)),
			"live_heap_mb":  live / (1 << 20),
		}
		printPhase(w, wl, ph)
		return makeResult(ph, endToEnd, values), nil
	}

	// Traced: an untraced half for the overhead baseline, then the traced
	// half under the CPU profiler.
	base, err := runPhase(wl, o, false, budget/2)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ph, err := runPhase(wl, o, true, budget/2)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if ph.checkErr == nil && base.first.digest != ph.first.digest {
		ph.checkErr = fmt.Errorf("traced sim_digest %s differs from untraced %s", ph.first.digest, base.first.digest)
	}
	if base.checkErr != nil && ph.checkErr == nil {
		ph.checkErr = base.checkErr
	}
	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	values := layerMetrics(ph, base, shares)
	printPhase(w, wl, ph)
	printWhereTimeWent(w, wl.name, shares, values, samples)
	if err := ph.log.write(o.spansDir, fmt.Sprintf("%s-seed%d.json", wl.name, o.seed)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	ph.ops += base.ops
	ph.failed += base.failed
	return makeResult(ph, perLayer, values), nil
}

// liveHeap records the live heap ("/gc/heap/live:bytes") each garbage-
// collection cycle marks: the memory the workload kept reachable, without
// the garbage the heap's size also counts until a cycle frees it.
type liveHeap struct {
	done, exited chan struct{}
	read         []metrics.Sample
	cycles       uint64 // cycles finished at the last poll
	samples      []float64
}

// liveHeapEvery is how often the sampler looks for a finished cycle.
const liveHeapEvery = time.Millisecond

func startLiveHeap() *liveHeap {
	h := &liveHeap{done: make(chan struct{}), exited: make(chan struct{}),
		read: []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}}
	metrics.Read(h.read)
	h.cycles = h.read[0].Value.Uint64()
	go func() {
		defer close(h.exited)
		t := time.NewTicker(liveHeapEvery)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.poll()
			}
		}
	}()
	return h
}

// poll records the live heap if a cycle finished since the last poll.
func (h *liveHeap) poll() {
	metrics.Read(h.read)
	if c := h.read[0].Value.Uint64(); c != h.cycles {
		h.cycles = c
		h.samples = append(h.samples, float64(h.read[1].Value.Uint64()))
	}
}

// stop ends the sampling, polls once more, and returns the samples.
func (h *liveHeap) stop() []float64 {
	close(h.done)
	<-h.exited
	h.poll()
	return h.samples
}

// memoryGCPercent paces the collector during the memory pass: a cycle every
// 10% of heap growth samples the live heap many times per iteration.
const memoryGCPercent = 10

// meanLiveHeap runs one untimed extra iteration under a tightly paced
// collector and returns the mean live heap over its cycles, in bytes, the
// last one forced at the end of the run. A peak would be an extreme value:
// whether a cycle lands on a short-lived spike varies from run to run.
func meanLiveHeap(w *workload, o options) (float64, error) {
	runtime.GC()
	old := debug.SetGCPercent(memoryGCPercent)
	defer debug.SetGCPercent(old)
	sampler := startLiveHeap()
	inst, err := w.setup(o.seed, o.sz, nil)
	if err == nil {
		_, err = inst.run()
	}
	runtime.GC()
	runtime.KeepAlive(inst)
	samples := sampler.stop()
	if err != nil {
		return 0, fmt.Errorf("%s memory pass: %w", w.name, err)
	}
	return mean(samples), nil
}

// layerMetrics assembles every per-layer metric of a traced phase.
func layerMetrics(ph, base *phase, shares map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range ph.last.layer {
		m[k] = v
	}
	for prefix, layer := range selfPctLayers {
		m[prefix+".self_pct"] = shares[layer]
	}
	m["gc.cycles"] = float64(ph.gcCycles) / float64(len(ph.runS))
	m["gc.pause_ms"] = float64(ph.gcPauseNS) / 1e6 / float64(len(ph.runS))
	if ph.last.layer["sim.events"] > 0 {
		m["sim.events_per_host_s"] = ph.last.layer["sim.events"] * float64(len(ph.runS)) / ph.wall.Seconds()
	}
	// Host timings of whole calls come from the untraced half.
	for k, xs := range base.host {
		if k == "saga_us" {
			m["saga.p50_us"] = median(xs)
			m["saga.p99_us"] = quantile(xs, 0.99)
		} else {
			m[k] = median(xs)
		}
	}
	m["trace.overhead_pct"] = 100 * (ratio(median(base.opsPerS), median(ph.opsPerS)) - 1)
	return m
}

// makeResult fills the JSON line with every metric in specs (0 for one the
// workload does not produce).
func makeResult(ph *phase, specs []metricSpec, values map[string]float64) *result {
	res := &result{
		Correct:   ph.checkErr == nil && ph.failed == 0,
		Attempted: ph.ops,
		Failed:    ph.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v := values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return res
}

// hostLabel records what the numbers were measured on. A figure from a
// one-core host never stands in for a parallel speed-up.
func hostLabel(name string, sz sizes) string {
	shards := 1
	if name == "rack" {
		shards = sz.rackShards
	}
	s := fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s shards=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), shards)
	if runtime.NumCPU() == 1 {
		s += " (1-core host: shards time-share one core, so no parallel speed-up is measured)"
	}
	return s
}

func printPhase(w io.Writer, wl *workload, ph *phase) {
	fmt.Fprintf(w, "set-up             %s\n", timing(ph.setupS, "s"))
	fmt.Fprintf(w, "iteration          %s\n", timing(ph.runS, "s"))
	fmt.Fprintf(w, "ops                %d attempted, %d failed (failed_op_ratio %.4g)\n",
		ph.ops, ph.failed, ratio(float64(ph.failed), float64(ph.ops)))
	fmt.Fprintf(w, "allocs_per_op      %.1f\n", ratio(float64(ph.mallocs), float64(ph.timedOps)))
	wl.report(w, ph)
	fmt.Fprintf(w, "sim_digest         %s\n", ph.first.digest)
	if ph.checkErr != nil {
		fmt.Fprintf(w, "correct            false: %v\n", ph.checkErr)
	} else {
		fmt.Fprintf(w, "correct            true\n")
	}
}

// printWhereTimeWent prints the traced run's table: host CPU self time by
// layer, then every per-layer metric this workload moves, with the
// end-to-end metric it should move.
func printWhereTimeWent(w io.Writer, name string, shares, values map[string]float64, samples int64) {
	fmt.Fprintf(w, "\nWhere did the time go — %s (host CPU self time by layer, %d samples)\n", name, samples)
	layers := make([]string, 0, len(shares))
	for k := range shares {
		layers = append(layers, k)
	}
	sort.Slice(layers, func(i, j int) bool {
		a, b := layers[i], layers[j]
		if shares[a] != shares[b] {
			return shares[a] > shares[b]
		}
		return a < b
	})
	for _, k := range layers {
		if shares[k] >= 0.1 {
			fmt.Fprintf(w, "  %-28s %8.2f%%\n", k, shares[k])
		}
	}
	fmt.Fprintf(w, "Per-layer metrics on %s (-> the end-to-end metric each should move)\n", name)
	for _, s := range perLayer {
		if slices.Contains(strings.Split(s.on, ", "), name) {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s -> %s\n", s.name, values[s.name], s.unit, s.moves)
		}
	}
	fmt.Fprintln(w)
}
