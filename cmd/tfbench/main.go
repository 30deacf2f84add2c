// Command tfbench regenerates the paper's evaluation: every figure of the
// MICRO 2020 ThymesisFlow paper plus this repository's ablations, and the
// harness experiments around them. Every mode is one row of the experiment
// table below, selected with -experiment; `tfbench -h` lists the rows.
//
// Usage:
//
//	tfbench -experiment all            # every figure and ablation, quick scale
//	tfbench -experiment fig5 -full     # one experiment at calibrated scale
//	tfbench -parallel 0                # all cores; output is byte-identical
//
// "all" runs every row except chaos, latency-attr and detect. Those three
// each print one self-contained report and set the exit status from their
// own pass/fail gate. -out writes the JSON report of the rows that have one
// (chaos, latency-attr, replay, detect); -scenario narrows chaos and detect
// to one scenario of either chaos catalogue. -trace records the datapath
// of the rows that trace (fig5) and -metrics the telemetry of the rows that
// register metrics (fig5, replay); both files are written after the last
// row. Naming any of these flags when no selected row honours it is a
// usage error (exit 2).
//
// Replay drives a seeded datacenter-churn trace (attach/detach arrivals
// under diurnal/burst envelopes, memory-pressure walks, agent flap storms)
// through the REAL control plane — journaled sagas over a lossy transport,
// the reconciler, and the autoscaler — at over a thousand sagas per
// simulated minute (docs in EXPERIMENTS.md):
//
//	tfbench -experiment replay -seed 7
//	tfbench -experiment replay -replay-minutes 5 -replay-rate 2000
//	tfbench -experiment replay -out replay.json -metrics m.json
//
// The report (stdout table + -out JSON + replay_* metrics) is byte-
// identical per seed.
//
// -parallel N runs each experiment's independent cells on N workers
// (N=0 means one per core, N=1 — the default — is sequential). Every cell
// owns its simulation kernel and the merged tables are printed in cell
// order, so the output does not depend on N.
//
// -shards N partitions each cluster-building experiment (rack, chaos,
// latency-attr, detect) into N simulation kernels advanced in conservative
// lookahead windows (one kernel per host placement, docs/PARALLEL_SIM.md);
// N=0 means one per core. Seeded output is byte-identical at every shard
// count — -shards trades nothing but wall-clock:
//
//	tfbench -experiment rack -shards 8          # rack-scale scenario, 8 kernels
//	tfbench -experiment chaos -seed 42 -shards 2 # same report as -shards 1
//
// Latency attribution decomposes the ~950 ns flit RTT stage by stage (see
// docs/OBSERVABILITY.md):
//
//	tfbench -experiment latency-attr -out breakdown.json
//
// Chaos runs the fault-injection conformance campaign:
//
//	tfbench -experiment chaos                     # full catalogue, default seed
//	tfbench -experiment chaos -seed 42 -out r.json
//	tfbench -experiment chaos -scenario crc-burst -seed 42
//	tfbench -experiment chaos -scenario cp-agent-flap -seed 42
//
// The campaign covers both the datapath (frame loss, CRC bursts, credit
// starvation, link-down escalation) and the control plane (agent flaps,
// orchestrator crashes mid-saga, duplicate-command storms against the
// saga/journal/reconciliation machinery).
//
// The campaign seed is printed in the report; re-running any scenario with
// that seed reproduces its report byte for byte (see docs/RELIABILITY.md).
// Exit status is non-zero if any scenario violates its invariants.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"thymesisflow/internal/bench"
	"thymesisflow/internal/chaos"
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/trace"
)

// opts is what a row reads: the parsed flags and the shared sinks.
type opts struct {
	w, stderr io.Writer
	r         *bench.Runner
	reg       *metrics.Registry
	scale     bench.Scale
	seed      int64
	shards    int
	scenario  string
	out       string

	snapshotOut string
	// replay holds the -replay-* flags; runReplay adds the seed and scale.
	replay bench.ReplayConfig
}

// experiment is one row of the table.
type experiment struct {
	names []string
	// solo rows are left out of "all". Each prints one self-contained
	// report, with no blank line after it, and gates the exit status on its
	// own verdict.
	solo bool
	// report rows write a JSON report to -out; scenario rows run the chaos
	// catalogues, narrowed to one scenario by -scenario.
	report, scenarios bool
	// traces rows record into -trace's tracer and metered rows into
	// -metrics' registry.
	traces, metered bool
	run             func(o *opts) int
}

// figure wraps a row that has no verdict of its own.
func figure(f func(o *opts)) func(o *opts) int {
	return func(o *opts) int { f(o); return 0 }
}

var experiments = []experiment{
	{names: []string{"fig1"}, run: figure(func(o *opts) { bench.Fig1(o.w, o.scale) })},
	{names: []string{"rtt"}, run: figure(func(o *opts) { bench.RTT(o.w) })},
	{names: []string{"fig5", "stream"}, traces: true, metered: true, run: figure(func(o *opts) { o.r.Fig5Stream(o.w, o.scale) })},
	{names: []string{"fig6", "voltdb-profile"}, run: figure(func(o *opts) { bench.Fig6Profile(o.w, o.scale) })},
	{names: []string{"fig7", "voltdb-throughput"}, run: figure(func(o *opts) { o.r.Fig7Throughput(o.w, o.scale) })},
	{names: []string{"fig8", "memcached"}, run: figure(func(o *opts) { o.r.Fig8Memcached(o.w, o.scale) })},
	{names: []string{"fig9", "search"}, run: figure(func(o *opts) { o.r.Fig9Search(o.w, o.scale) })},
	{names: []string{"ablation-replay"}, run: figure(func(o *opts) { bench.AblationReplay(o.w) })},
	{names: []string{"ablation-bonding"}, run: figure(func(o *opts) { bench.AblationBonding(o.w) })},
	{names: []string{"ablation-migration"}, run: figure(func(o *opts) { bench.AblationMigration(o.w) })},
	{names: []string{"ablation-hbm"}, run: figure(func(o *opts) { o.r.AblationHBM(o.w, o.scale) })},
	{names: []string{"ablation-qos"}, run: figure(func(o *opts) { bench.AblationQoS(o.w) })},
	{names: []string{"projection-integration"}, run: figure(func(o *opts) { bench.ProjectionIntegration(o.w) })},
	{names: []string{"projection-multistack"}, run: figure(func(o *opts) { o.r.ProjectionMultiStack(o.w, o.scale) })},
	{names: []string{"projection-switching"}, run: figure(func(o *opts) { bench.ProjectionSwitching(o.w) })},
	{names: []string{"rack"}, run: runRack},
	{names: []string{"replay"}, report: true, metered: true, run: runReplay},
	{names: []string{"chaos"}, solo: true, report: true, scenarios: true, run: runChaos},
	{names: []string{"latency-attr"}, solo: true, report: true, run: func(o *opts) int {
		if err := bench.LatencyAttrShards(o.w, o.out, o.shards); err != nil {
			return o.fail(err)
		}
		return 0
	}},
	{names: []string{"detect"}, solo: true, report: true, scenarios: true, run: runDetect},
}

// rowNames joins the names of the rows keep accepts.
func rowNames(keep func(e experiment) bool) string {
	var names []string
	for _, e := range experiments {
		if keep(e) {
			names = append(names, e.names...)
		}
	}
	return strings.Join(names, "|")
}

func main() {
	experimentName := flag.String("experiment", "all", "experiment to run ("+rowNames(func(experiment) bool { return true })+"|all); all leaves out "+rowNames(func(e experiment) bool { return e.solo }))
	full := flag.Bool("full", false, "run at calibrated (paper) scale instead of quick scale")
	parallel := flag.Int("parallel", 1, "experiment-cell workers: 1 = sequential, 0 = one per core, N = N workers")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing); for "+rowNames(func(e experiment) bool { return e.traces }))
	metricsOut := flag.String("metrics", "", "write a metrics-registry snapshot JSON file; for "+rowNames(func(e experiment) bool { return e.metered }))
	seed := flag.Int64("seed", 1, "seed for rack, replay, chaos and detect; the same seed reproduces the report byte for byte")
	scenario := flag.String("scenario", "", "run a single chaos scenario by name, datapath or control-plane (default: both catalogues); for "+rowNames(func(e experiment) bool { return e.scenarios }))
	out := flag.String("out", "", "write the experiment's JSON report to this file; for "+rowNames(func(e experiment) bool { return e.report }))
	shards := flag.Int("shards", 1, "simulation shards per cluster: 1 = one sequential kernel, 0 = one per core, N = N kernels in conservative lookahead windows; seeded output is byte-identical at any value")
	replayMinutes := flag.Int("replay-minutes", 0, "with -experiment replay: simulated trace minutes (0 = 2 quick / 5 full)")
	replayRate := flag.Float64("replay-rate", 0, "with -experiment replay: attach arrivals per simulated minute (0 = 800)")
	replayWorkers := flag.Int("replay-workers", 1, "with -experiment replay: concurrent saga-issuing goroutines (1 = deterministic sequential driver; N > 1 races issuers against the saga admission limit)")
	snapshotOut := flag.String("snapshot-out", "", "with -experiment detect -scenario: write the recorded series as a binary TFTS snapshot for tfmon")
	flag.Parse()

	o := &opts{
		w: os.Stdout, stderr: os.Stderr, r: bench.NewRunner(*parallel), scale: bench.Quick,
		seed: *seed, shards: *shards, scenario: *scenario, out: *out, snapshotOut: *snapshotOut,
		replay: bench.ReplayConfig{
			Minutes: *replayMinutes, RatePerMinute: *replayRate, Workers: *replayWorkers,
		},
	}
	if *full {
		o.scale = bench.Full
	}
	if o.shards <= 0 {
		o.shards = runtime.NumCPU()
	}
	os.Exit(o.run(*experimentName, *traceOut, *metricsOut))
}

// run runs the rows the experiment name selects, writes traceOut and
// metricsOut when set, and returns the exit status: 0 on success, 1 when a
// row fails its gate or a file cannot be written, 2 on a usage error.
func (o *opts) run(name, traceOut, metricsOut string) int {
	want := strings.ToLower(name)
	var rows []experiment
	for _, e := range experiments {
		if want == "all" && !e.solo || slices.Contains(e.names, want) {
			rows = append(rows, e)
		}
	}
	if len(rows) == 0 {
		fmt.Fprintf(o.stderr, "tfbench: unknown experiment %q\n", name)
		flag.Usage()
		return 2
	}
	for _, f := range []struct {
		flag, value, refusal string
		honours              func(e experiment) bool
	}{
		{"-out", o.out, "writes no report", func(e experiment) bool { return e.report }},
		{"-scenario", o.scenario, "runs no chaos scenarios", func(e experiment) bool { return e.scenarios }},
		{"-trace", traceOut, "records no trace", func(e experiment) bool { return e.traces }},
		{"-metrics", metricsOut, "registers no metrics", func(e experiment) bool { return e.metered }},
	} {
		if f.value != "" && !slices.ContainsFunc(rows, f.honours) {
			fmt.Fprintf(o.stderr, "tfbench: %s: experiment %q %s\n", f.flag, name, f.refusal)
			return 2
		}
	}
	if _, _, err := chaos.Select(o.scenario); err != nil {
		fmt.Fprintf(o.stderr, "tfbench: %v; catalogue:\n", err)
		for _, c := range chaos.Catalogue() {
			fmt.Fprintf(o.stderr, "  %-28s %s\n", c.Name, c.Description)
		}
		for _, c := range chaos.CPCatalogue() {
			fmt.Fprintf(o.stderr, "  %-28s %s\n", c.Name, c.Description)
		}
		return 2
	}

	var ring *trace.Ring
	if traceOut != "" {
		ring = trace.NewRing(trace.DefaultRingCapacity)
		o.r.Tracer = ring
	}
	if metricsOut != "" {
		o.reg = metrics.NewRegistry()
		o.r.Metrics = o.reg
	}

	status := 0
	for _, e := range rows {
		if status = e.run(o); status != 0 {
			break
		}
		if !e.solo {
			fmt.Fprintln(o.w)
		}
	}
	if ring != nil {
		if err := writeFile(traceOut, ring.WriteChromeTrace); err != nil {
			status = max(status, o.fail(err))
		} else {
			fmt.Fprintf(o.w, "trace: %d events (%d dropped) -> %s\n", ring.Len(), ring.Dropped(), traceOut)
		}
	}
	if o.reg != nil {
		if err := writeFile(metricsOut, o.reg.WriteJSON); err != nil {
			status = max(status, o.fail(err))
		} else {
			fmt.Fprintf(o.w, "metrics -> %s\n", metricsOut)
		}
	}
	return status
}

// fail reports err on stderr and returns exit status 1.
func (o *opts) fail(err error) int {
	fmt.Fprintf(o.stderr, "tfbench: %v\n", err)
	return 1
}

// writeReport writes v as indented JSON to -out and names the file on
// stdout.
func (o *opts) writeReport(what string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(o.w, "%s (seed %d) -> %s\n", what, o.seed, o.out)
	return nil
}

// runRack runs the rack-scale sharded-simulation scenario. The summary on
// stdout is deterministic (virtual time only); wall-clock goes to stderr so
// scaling runs can be compared without disturbing the seeded output.
func runRack(o *opts) int {
	cfg := bench.RackConfig{Shards: o.shards, Seed: o.seed}
	if o.scale == bench.Full {
		// Full scale: 1280 concurrent flows keep every shard's window
		// dense, so the conservative barriers amortize and the shard sweep
		// `make bench-quick` records (BENCH_PR15.json) shows the
		// multi-core scaling.
		cfg.Hosts = 32
		cfg.Attachments = 160
		cfg.WorkersPerAttachment = 8
		cfg.OpsPerWorker = 432
	}
	start := time.Now()
	rep, err := bench.Rack(o.w, cfg)
	wall := time.Since(start)
	fmt.Fprintf(o.stderr, "tfbench: rack %d hosts / %d shards: %.3fs wall, %d events\n",
		rep.Hosts, rep.Shards, wall.Seconds(), rep.Events)
	if err != nil {
		return o.fail(err)
	}
	return 0
}

// runReplay drives the datacenter-churn traffic replay against the real
// control plane (sagas over a lossy transport, journal, reconciler,
// autoscaler). Stdout is a pure function of the seed; wall clock goes to
// stderr.
func runReplay(o *opts) int {
	cfg := o.replay
	cfg.Seed = o.seed
	if cfg.Minutes == 0 && o.scale == bench.Full {
		cfg.Minutes = 5
	}
	start := time.Now()
	rep, err := bench.Replay(o.w, cfg)
	wall := time.Since(start)
	if err != nil {
		return o.fail(err)
	}
	fmt.Fprintf(o.stderr, "tfbench: replay %d sim-minutes, %d sagas: %.3fs wall (%.0f sagas/s wall)\n",
		rep.Minutes, rep.SagasCommitted, wall.Seconds(), float64(rep.SagasCommitted)/wall.Seconds())
	if o.reg != nil {
		bench.RegisterReplayMetrics(o.reg, &rep)
	}
	if o.out != "" {
		if err := o.writeReport("replay report", rep); err != nil {
			return o.fail(err)
		}
	}
	if len(rep.Invariants) != 0 {
		fmt.Fprintf(o.stderr, "tfbench: replay invariants violated: %v\n", rep.Invariants)
		return 1
	}
	return 0
}

// runDetect scores the online anomaly detector against the chaos
// catalogue's ground-truth labels (docs/OBSERVABILITY.md). Stdout is a pure
// function of the seed; exit status reflects the precision/recall gate.
func runDetect(o *opts) int {
	cfg := bench.DetectConfig{Seed: o.seed, Shards: o.shards, Scenario: o.scenario}
	if o.snapshotOut != "" {
		f, err := os.Create(o.snapshotOut)
		if err != nil {
			return o.fail(err)
		}
		defer f.Close()
		cfg.SnapshotOut = f
	}
	rep, err := bench.Detect(o.w, cfg)
	if err != nil {
		o.fail(err)
		return 2
	}
	if o.snapshotOut != "" {
		fmt.Fprintf(o.w, "flight-recorder snapshot (seed %d, %s) -> %s\n", o.seed, o.scenario, o.snapshotOut)
	}
	if o.out != "" {
		if err := o.writeReport("detect scorecard", rep); err != nil {
			return o.fail(err)
		}
	}
	if !rep.Passed {
		fmt.Fprintf(o.stderr, "tfbench: detect scorecard FAILED (reproduce with -experiment detect -seed %d)\n", o.seed)
		return 1
	}
	return 0
}

// runChaos executes the fault-injection campaigns — the datapath catalogue
// and the control-plane (saga/recovery/reconciliation) catalogue — and
// returns 0 when every scenario passed, 1 otherwise.
func runChaos(o *opts) int {
	dp, cp, _ := chaos.Select(o.scenario) // checked before any row runs
	rep := chaos.Campaign(dp, cp, o.seed, o.shards, o.r.Run)
	if o.out != "" {
		if err := o.writeReport("chaos report", rep); err != nil {
			return o.fail(err)
		}
	} else {
		data, err := rep.JSON()
		if err != nil {
			return o.fail(err)
		}
		fmt.Fprintf(o.w, "%s\n", data)
	}
	verdict := func(passed bool) string {
		if passed {
			return "PASS"
		}
		return "FAIL"
	}
	for _, sr := range rep.Scenarios {
		fmt.Fprintf(o.stderr, "%s %-28s seed=%d ops=%d/%d replayed=%d state=%s\n",
			verdict(sr.Passed), sr.Name, sr.Seed, sr.OpsOK, sr.Ops, sr.LLC.TxReplayed, sr.FinalState)
	}
	for _, sr := range rep.ControlPlane {
		fmt.Fprintf(o.stderr, "%s %-28s seed=%d attach=%d detach=%d crashes=%d retries=%d repairs=%d\n",
			verdict(sr.Passed), sr.Name, sr.Seed, sr.Attaches, sr.Detaches, sr.Crashes,
			sr.Counters.SagaRetries, sr.Counters.ReconcileRepairs)
	}
	if !rep.Passed {
		fmt.Fprintf(o.stderr, "tfbench: campaign FAILED (reproduce with -experiment chaos -seed %d)\n", o.seed)
		return 1
	}
	fmt.Fprintf(o.stderr, "tfbench: campaign passed (reproduce with -experiment chaos -seed %d)\n", o.seed)
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
