package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"thymesisflow/internal/chaos"
	"thymesisflow/internal/core"
	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
)

// Detect is the closed-loop detector validation experiment: every chaos
// scenario (datapath catalogue plus the control-plane catalogue) runs with
// the flight recorder enabled, the online detector analyzes the recorded
// series, and the emitted anomaly events are scored against the ground-truth
// labels the scenario's own fault script exports. The scorecard — per-class
// precision/recall plus a detection-latency histogram — is a pure function
// of the seed: series timestamps are virtual (datapath) or step-clock
// (control plane), the shard.* and sim.* runtime series — which differ by
// shard count — are filtered out before analysis, and every table sorts
// deterministically.

// Acceptance thresholds for the scorecard.
const (
	detectMinPrecision = 0.8
	detectMinRecall    = 0.9
)

// detectPadPS is the datapath match tolerance: an event may onset up to one
// replay-timeout-ish tail after its label window closes (replays of frames
// lost at the window edge land late) and still count as that label's
// detection.
const detectPadPS = 50_000_000 // 50 us

// detectCapacity holds a full 2x50 ms chaos observation at the ~5 us tick
// (20k points) without evicting the fault windows at the front of the run.
const detectCapacity = 1 << 15

// DetectConfig parameterizes the detect experiment.
type DetectConfig struct {
	Seed   int64
	Shards int
	// Scenario, when non-empty, restricts the run to one catalogue scenario
	// (datapath or control-plane) — the CI smoke target.
	Scenario string
	// SnapshotOut, when non-nil, receives the scenario's recorded series in
	// the binary TFTS form tfmon reads. Requires Scenario: one run, one
	// snapshot.
	SnapshotOut io.Writer
}

// DetectScenarioScore is one scenario's slice of the scorecard.
type DetectScenarioScore struct {
	Name           string              `json:"name"`
	Domain         string              `json:"domain"` // datapath | controlplane
	Seed           int64               `json:"seed"`
	ScenarioPassed bool                `json:"scenario_passed"`
	Series         int                 `json:"series"`
	Labels         []detect.Label      `json:"labels,omitempty"`
	Events         []detect.Event      `json:"events,omitempty"`
	Classes        []detect.ClassScore `json:"classes,omitempty"`
}

// DetectLatencyBucket is one cumulative histogram bucket (le == -1 is +Inf).
type DetectLatencyBucket struct {
	LeNS  int64 `json:"le_ns"`
	Count int   `json:"count"`
}

// DetectLatency is the detection-latency histogram over every detected
// label, in nanoseconds (datapath latencies convert from picoseconds).
type DetectLatency struct {
	Buckets []DetectLatencyBucket `json:"buckets"`
	Count   int                   `json:"count"`
	MeanNS  int64                 `json:"mean_ns"`
	MaxNS   int64                 `json:"max_ns"`
}

// DetectReport is the full scorecard.
type DetectReport struct {
	Seed      int64                 `json:"seed"`
	Shards    int                   `json:"shards"`
	PadPS     int64                 `json:"pad_ps"`
	Scenarios []DetectScenarioScore `json:"scenarios"`
	Classes   []detect.ClassScore   `json:"classes"`
	Latency   DetectLatency         `json:"latency"`
	Passed    bool                  `json:"passed"`
}

// detectLatencyEdges are the histogram bucket upper bounds in ns.
var detectLatencyEdges = []int64{
	10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
}

// Detect runs the experiment and writes the deterministic scorecard to w.
func Detect(w io.Writer, cfg DetectConfig) (DetectReport, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.SnapshotOut != nil && cfg.Scenario == "" {
		return DetectReport{}, fmt.Errorf("snapshot export needs a single scenario (-scenario)")
	}
	rep := DetectReport{Seed: cfg.Seed, Shards: cfg.Shards, PadPS: detectPadPS}

	cat, cpCat, err := chaos.Select(cfg.Scenario)
	if err != nil {
		return rep, err
	}

	var latencies []int64 // ns
	for _, s := range cat {
		srep, snap := chaos.Run(s, cfg.Seed, cfg.Shards, &core.FlightOptions{
			Capacity: detectCapacity,
		})
		// The runtime series describe how the run was sharded, not the
		// simulated fabric: shard.* exist only on sharded runs, and sim.*
		// read kernel 0's clock and pending events summed over the shards,
		// so both differ by shard count. Deterministic, but not input to a
		// shard-count-invariant scorecard.
		snap = snap.Filter(func(name string) bool {
			return !strings.HasPrefix(name, "shard.") && !strings.HasPrefix(name, "sim.")
		})
		if cfg.SnapshotOut != nil {
			if _, err := cfg.SnapshotOut.Write(timeseries.EncodeSnapshot(snap)); err != nil {
				return rep, fmt.Errorf("snapshot export: %w", err)
			}
		}
		events := detect.Analyze(snap, detect.DatapathRules())
		labels := chaos.GroundTruth(s)
		classes, lats := detect.Score(labels, events, detectPadPS)
		for i := range classes {
			classes[i].Finalize()
		}
		for _, l := range lats {
			latencies = append(latencies, l/1000) // ps -> ns
		}
		rep.Scenarios = append(rep.Scenarios, DetectScenarioScore{
			Name: s.Name, Domain: "datapath", Seed: srep.Seed,
			ScenarioPassed: srep.Passed, Series: len(snap.Series),
			Labels: labels, Events: events, Classes: classes,
		})
	}
	for _, s := range cpCat {
		srep, snap := chaos.RunCP(s, cfg.Seed, timeseries.NewRecorder(0))
		if cfg.SnapshotOut != nil {
			if _, err := cfg.SnapshotOut.Write(timeseries.EncodeSnapshot(snap)); err != nil {
				return rep, fmt.Errorf("snapshot export: %w", err)
			}
		}
		events := detect.Analyze(snap, detect.ControlPlaneRules())
		labels := chaos.CPGroundTruth(s)
		classes, lats := detect.Score(labels, events, 0)
		for i := range classes {
			classes[i].Finalize()
		}
		latencies = append(latencies, lats...) // already ns
		rep.Scenarios = append(rep.Scenarios, DetectScenarioScore{
			Name: s.Name, Domain: "controlplane", Seed: srep.Seed,
			ScenarioPassed: srep.Passed, Series: len(snap.Series),
			Labels: labels, Events: events, Classes: classes,
		})
	}

	rep.Classes = aggregateClasses(rep.Scenarios)
	rep.Latency = latencyHist(latencies)
	rep.Passed = true
	for _, c := range rep.Classes {
		if c.Precision < detectMinPrecision || c.Recall < detectMinRecall {
			rep.Passed = false
		}
	}
	for _, s := range rep.Scenarios {
		if !s.ScenarioPassed {
			rep.Passed = false
		}
	}

	printDetect(w, &rep)
	return rep, nil
}

// aggregateClasses sums per-scenario confusion counts per class, then
// finalizes precision/recall over the whole campaign.
func aggregateClasses(scenarios []DetectScenarioScore) []detect.ClassScore {
	byClass := make(map[string]*detect.ClassScore)
	for _, s := range scenarios {
		for _, c := range s.Classes {
			t := byClass[c.Class]
			if t == nil {
				t = &detect.ClassScore{Class: c.Class}
				byClass[c.Class] = t
			}
			t.Labels += c.Labels
			t.LabelsDetected += c.LabelsDetected
			t.Events += c.Events
			t.EventsMatched += c.EventsMatched
		}
	}
	out := make([]detect.ClassScore, 0, len(byClass))
	for _, c := range byClass {
		c.Finalize()
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

func latencyHist(latencies []int64) DetectLatency {
	h := DetectLatency{Count: len(latencies)}
	h.Buckets = make([]DetectLatencyBucket, len(detectLatencyEdges)+1)
	for i, le := range detectLatencyEdges {
		h.Buckets[i].LeNS = le
	}
	h.Buckets[len(detectLatencyEdges)].LeNS = -1 // +Inf
	var sum int64
	for _, l := range latencies {
		sum += l
		if l > h.MaxNS {
			h.MaxNS = l
		}
		for i, le := range detectLatencyEdges {
			if l <= le {
				h.Buckets[i].Count++
			}
		}
		h.Buckets[len(detectLatencyEdges)].Count++
	}
	if h.Count > 0 {
		h.MeanNS = sum / int64(h.Count)
	}
	return h
}

func printDetect(w io.Writer, rep *DetectReport) {
	fmt.Fprintf(w, "# Anomaly detection scorecard (seed %d, %d shards)\n", rep.Seed, rep.Shards)
	fmt.Fprintf(w, "# detector scored against chaos ground truth; pad %d us on datapath windows\n\n",
		rep.PadPS/1_000_000)
	fmt.Fprintf(w, "%-28s %-12s %7s %7s %7s %7s\n",
		"scenario", "domain", "labels", "events", "hit", "ok")
	for _, s := range rep.Scenarios {
		hits := 0
		for _, c := range s.Classes {
			hits += c.LabelsDetected
		}
		ok := "yes"
		if !s.ScenarioPassed {
			ok = "NO"
		}
		fmt.Fprintf(w, "%-28s %-12s %7d %7d %7d %7s\n",
			s.Name, s.Domain, len(s.Labels), len(s.Events), hits, ok)
	}
	fmt.Fprintf(w, "\n%-20s %7s %9s %7s %9s %10s %8s\n",
		"class", "labels", "detected", "events", "matched", "precision", "recall")
	for _, c := range rep.Classes {
		fmt.Fprintf(w, "%-20s %7d %9d %7d %9d %10.3f %8.3f\n",
			c.Class, c.Labels, c.LabelsDetected, c.Events, c.EventsMatched,
			c.Precision, c.Recall)
	}
	fmt.Fprintf(w, "\ndetection latency: %d detections, mean %d ns, max %d ns\n",
		rep.Latency.Count, rep.Latency.MeanNS, rep.Latency.MaxNS)
	for _, b := range rep.Latency.Buckets {
		le := fmt.Sprintf("%d", b.LeNS)
		if b.LeNS < 0 {
			le = "+Inf"
		}
		fmt.Fprintf(w, "  le %8s ns: %d\n", le, b.Count)
	}
	verdict := "PASS"
	if !rep.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "\nscorecard: %s (precision >= %.1f, recall >= %.1f per class)\n",
		verdict, detectMinPrecision, detectMinRecall)
}
