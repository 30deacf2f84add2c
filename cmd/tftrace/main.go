// Command tftrace analyses trace exports recorded by the simulator and the
// control plane, turning the trace recorders into offline analysis tools.
//
// Datapath mode ingests Chrome trace-event exports (tfbench -trace, tfd
// -trace-events + /v1/trace/snapshot):
//
//	tftrace trace.json                  # per-layer span summaries
//	tftrace -top 5 trace.json           # + the stage spans of the 5 slowest transactions
//	tftrace -stalls trace.json          # each stage's share of round-trip time
//	tftrace -layer llc trace.json       # restrict summaries to one layer
//	tftrace -json trace.json            # machine-readable output
//
// A transaction is a capi read_req/write_req round-trip span together with
// the stage spans of its latency record, which tile it exactly; the export
// groups them by an explicit id (args.txn), so concurrent transactions
// never mix.
//
// Control-plane mode (-cp) ingests the saga event log served at /v1/events
// (tfd -saga-events), reconstructs every saga timeline, and rolls them up
// into per-operation stage profiles:
//
//	tftrace -cp events.json             # saga timelines + attach/detach profiles
//	tftrace -cp -json events.json       # machine-readable output
//
// Either mode exits non-zero when the input holds no events: an empty export
// is almost always a collection mistake (tracing off, wrong file, truncated
// download), not a quiet result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"thymesisflow/internal/trace"
)

func main() {
	top := flag.Int("top", 0, "list the stage spans of the N slowest transactions")
	stalls := flag.Bool("stalls", false, "split round-trip time into per-stage shares (credit_stall, frame_tx, ...)")
	layer := flag.String("layer", "", "restrict the span and instant summaries to one layer: sim, phy, llc, capi or rmmu (-top and -stalls are not filtered)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	cpMode := flag.Bool("cp", false, "analyse a control-plane saga event log (/v1/events export) instead of a Chrome trace")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tftrace [-cp] [-top N] [-stalls] [-layer L] [-json] <trace.json>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tftrace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	if *cpMode {
		analyzeCP(f, flag.Arg(0), *jsonOut)
		return
	}
	events, err := trace.ParseChromeTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tftrace: %v\n", err)
		os.Exit(1)
	}
	if len(events) == 0 {
		fmt.Fprintf(os.Stderr, "tftrace: %s holds no trace events (tracing disabled, or a truncated export?)\n", flag.Arg(0))
		os.Exit(1)
	}

	summaries := trace.Summarize(events)
	if *layer != "" {
		filtered := summaries[:0]
		for _, s := range summaries {
			if s.Layer == *layer {
				filtered = append(filtered, s)
			}
		}
		summaries = filtered
	}
	var paths []trace.CriticalPath
	if *top > 0 {
		paths = trace.CriticalPaths(events, *top)
	}
	var att *trace.StallAttribution
	if *stalls {
		a := trace.AttributeStalls(events)
		att = &a
	}

	if *jsonOut {
		out := struct {
			Events    int                     `json:"events"`
			Summaries []trace.SpanSummary     `json:"summaries"`
			Paths     []trace.CriticalPath    `json:"critical_paths,omitempty"`
			Stalls    *trace.StallAttribution `json:"stalls,omitempty"`
		}{len(events), summaries, paths, att}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "tftrace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%d events\n\n", len(events))
	fmt.Printf("%-6s %-16s %-8s %8s %12s %10s %10s %10s\n",
		"layer", "name", "kind", "count", "total(ns)", "mean(ns)", "p99(ns)", "max(ns)")
	for _, s := range summaries {
		fmt.Printf("%-6s %-16s %-8s %8d %12.1f %10.1f %10.1f %10.1f\n",
			s.Layer, s.Name, s.Kind, s.Count, s.TotalNS, s.MeanNS, s.P99NS, s.MaxNS)
	}
	for i, cp := range paths {
		fmt.Printf("\ncritical path #%d: %s/%s %.1f ns @ %.1f ns (txn %d)\n",
			i+1, cp.Root.Layer, cp.Root.Name, cp.RootNS, float64(cp.Root.TS)/1e3, cp.Root.Txn)
		for _, e := range cp.Stages {
			fmt.Printf("  %12.1f ns  %-6s %-16s %.1f ns\n",
				float64(e.TS)/1e3, e.Layer, e.Name, float64(e.Dur)/1e3)
		}
		fmt.Printf("  by layer:")
		for _, l := range []string{"capi", "rmmu", "llc", "phy"} {
			if ns, ok := cp.ByLayer[l]; ok {
				fmt.Printf(" %s=%.1fns", l, ns)
			}
		}
		fmt.Println()
	}
	if att != nil {
		fmt.Printf("\nstage shares over %d round trips (%.1f ns total)\n",
			att.RoundTrips, att.RoundTripNS)
		for _, st := range att.Stages {
			fmt.Printf("  %-6s %-14s %14.1f ns (%6.2f%%)\n", st.Layer, st.Stage, st.TotalNS, st.SharePct)
		}
	}
}

// analyzeCP is control-plane mode: reconstruct saga timelines from a
// /v1/events export and profile them per operation.
func analyzeCP(f *os.File, name string, jsonOut bool) {
	events, err := trace.ParseEventLog(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tftrace: %v\n", err)
		os.Exit(1)
	}
	if len(events) == 0 {
		fmt.Fprintf(os.Stderr, "tftrace: %s holds no control-plane events (saga tracing disabled, or a truncated export?)\n", name)
		os.Exit(1)
	}
	traces := trace.BuildSagaTraces(events)
	if len(traces) == 0 {
		fmt.Fprintf(os.Stderr, "tftrace: %s holds %d events but no complete trace (all events lack trace IDs?)\n", name, len(events))
		os.Exit(1)
	}
	profiles := trace.ProfileSagas(traces)

	if jsonOut {
		out := struct {
			Events   int               `json:"events"`
			Traces   []trace.SagaTrace `json:"traces"`
			Profiles []trace.OpProfile `json:"profiles"`
		}{len(events), traces, profiles}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "tftrace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%d events, %d saga traces\n\n", len(events), len(traces))
	fmt.Printf("%-10s %-8s %-10s %8s %12s  %s\n",
		"saga", "op", "state", "events", "total(ns)", "stages")
	for _, t := range traces {
		saga := t.Saga
		if saga == "" {
			saga = fmt.Sprintf("trace-%d", t.Trace)
		}
		fmt.Printf("%-10s %-8s %-10s %8d %12d ", saga, t.Op, t.State, t.Events, t.TotalNS)
		for i, s := range t.Stages {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf(" %s=%dns(%.0f%%)", s.Name, s.DurNS, s.Pct)
		}
		fmt.Println()
	}
	for _, p := range profiles {
		fmt.Printf("\n%s: %d sagas, mean %.1f ns, p50 %d ns, p99 %d ns, max %d ns\n",
			p.Op, p.Count, p.MeanNS, p.P50NS, p.P99NS, p.MaxNS)
		for _, s := range p.Stages {
			fmt.Printf("  %-10s %12d ns (%5.1f%%)\n", s.Name, s.DurNS, s.Pct)
		}
	}
}
