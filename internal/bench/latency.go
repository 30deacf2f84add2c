package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"thymesisflow/internal/core"
	"thymesisflow/internal/endpoint"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/sim"
)

// latencyAttrProbes is the number of loads (and stores) the attribution
// experiment drives through the datapath.
const latencyAttrProbes = 200

// LatencyAttrShards reproduces the paper's Section V latency budget as a
// measured per-stage breakdown: it drives cacheline loads and stores through a
// single-disaggregated testbed with attribution enabled and prints the
// stage-by-stage RTT decomposition, checking that (a) the stage sum
// reconciles with the measured end-to-end latency and (b) the fixed crossing
// stages reconstruct the ~950 ns flit RTT. jsonOut, when non-empty, also
// writes the breakdown as JSON. The returned error is non-nil when a
// reconciliation check fails. The testbed cluster runs on the given number
// of simulation shards; attribution records complete on the compute host's
// kernel in virtual-time order, so the breakdown is byte-identical at every
// shard count.
func LatencyAttrShards(w io.Writer, jsonOut string, shards int) error {
	b, err := MeasureLatencyAttrShards(shards)
	if err != nil {
		return err
	}
	printBreakdown(w, b)
	if jsonOut != "" {
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "  breakdown -> %s\n", jsonOut)
	}
	return checkBreakdown(b)
}

// MeasureLatencyAttrShards runs the attribution experiment with the testbed
// cluster partitioned into the given number of simulation shards and returns
// the raw breakdown (shared by the CLI path and the tests).
func MeasureLatencyAttrShards(shards int) (latency.Breakdown, error) {
	tb, err := core.NewTestbedSpec(core.TestbedSpec{
		Config: core.ConfigSingleDisaggregated, RemoteBytes: 64 << 20, Shards: shards,
	})
	if err != nil {
		return latency.Breakdown{}, err
	}
	sink := tb.Cluster.EnableLatency()
	att := tb.Att
	k := tb.Cluster.K
	buf := make([]byte, 128)
	k.Go("latency-attr", func(p *sim.Proc) {
		for i := 0; i < latencyAttrProbes; i++ {
			off := int64(i%256) * 128
			if _, err := tb.Cluster.Load(p, att, off, 128); err != nil {
				panic(err)
			}
			if err := tb.Cluster.Store(p, att, off, buf); err != nil {
				panic(err)
			}
		}
	})
	tb.Cluster.Run()
	return sink.Snapshot(), nil
}

// printBreakdown renders the paper-style RTT decomposition table.
func printBreakdown(w io.Writer, b latency.Breakdown) {
	fmt.Fprintf(w, "Latency attribution — per-stage decomposition of %d round trips\n", b.Count)
	fmt.Fprintf(w, "  %-14s %10s %10s %10s %10s %8s\n",
		"stage", "mean(ns)", "p50(ns)", "p99(ns)", "p999(ns)", "share%")
	for _, s := range b.Stages {
		if s.Count == 0 || (s.MeanNS == 0 && s.MaxNS == 0) {
			continue // stage never contributed; keep the table readable
		}
		marker := ""
		if latencyStageIsCrossing(s.Stage) {
			marker = " *"
		}
		fmt.Fprintf(w, "  %-14s %10.1f %10.1f %10.1f %10.1f %8.2f%s\n",
			s.Stage, s.MeanNS, s.P50NS, s.P99NS, s.P999NS, s.SharePct, marker)
	}
	fmt.Fprintf(w, "  %-14s %10.1f %10.1f %10.1f %10.1f %8.2f\n",
		"end_to_end", b.EndToEnd.MeanNS, b.EndToEnd.P50NS, b.EndToEnd.P99NS,
		b.EndToEnd.P999NS, 100.0)
	fmt.Fprintf(w, "  stage sum %.1f ns vs end-to-end %.1f ns (reconcile err %.3f%%, %d skewed)\n",
		b.StageSumMeanNS, b.EndToEnd.MeanNS, b.ReconcileErrPct, b.Skewed)
	fmt.Fprintf(w, "  * crossings sum %.1f ns — paper budget %v flit RTT "+
		"(4 FPGA-stack + 6 serDES crossings)\n",
		b.CrossingsMeanNS, endpoint.DatapathRTT)
}

func latencyStageIsCrossing(name string) bool {
	for _, st := range latency.Stages() {
		if st.String() == name {
			return st.IsCrossing()
		}
	}
	return false
}

// checkBreakdown enforces the acceptance criteria of the attribution
// pipeline: exact per-record tiling (no skew), stage-sum/end-to-end
// reconciliation within 1%, and the crossing stages matching the paper's
// flit RTT within ±10 ns.
func checkBreakdown(b latency.Breakdown) error {
	if b.Count == 0 {
		return fmt.Errorf("bench: latency attribution recorded no round trips")
	}
	if b.Skewed != 0 {
		return fmt.Errorf("bench: %d records failed to tile their round trip", b.Skewed)
	}
	if b.ReconcileErrPct > 1.0 {
		return fmt.Errorf("bench: stage sum %.2f ns deviates %.2f%% from end-to-end %.2f ns",
			b.StageSumMeanNS, b.ReconcileErrPct, b.EndToEnd.MeanNS)
	}
	budgetNS := float64(endpoint.DatapathRTT) / float64(sim.Nanosecond)
	if diff := b.CrossingsMeanNS - budgetNS; diff < -10 || diff > 10 {
		return fmt.Errorf("bench: crossing stages sum %.1f ns, want %.1f ns ±10",
			b.CrossingsMeanNS, budgetNS)
	}
	return nil
}
