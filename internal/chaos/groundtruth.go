package chaos

import (
	"sort"

	"thymesisflow/internal/llc"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/timeseries/detect"
)

// Ground-truth export: chaos scenarios already script exactly when and how
// the fabric misbehaves (fault windows, shrunken credit configs, transport
// fault mixes), so the scripts themselves are the labels the anomaly
// detector is scored against. GroundTruth and CPGroundTruth translate a
// scenario into detect.Label windows in that scenario's native tick domain —
// virtual picoseconds for the datapath, step-clock nanoseconds for the
// control plane.

// Label-derivation thresholds. These classify the *scripts*, not the
// telemetry: a window must be intense enough, against a credit window deep
// enough to sustain dense retransmission traffic, before the script is
// considered to have *guaranteed* a replay storm (a required label). Any
// lossy window at all is *allowed* to storm — whether faint loss builds a
// storm depends on which frames the seed happens to hit — so fainter
// scripts export optional labels instead of none.
const (
	// replayStormMinIntensity is the combined drop+corrupt probability a
	// fault window needs before sustained replay traffic is expected.
	replayStormMinIntensity = 0.25
	// replayStormMinCredits: a window smaller than this cannot keep enough
	// frames outstanding to storm (the credit-starvation scenario's 2-slot
	// window stalls instead).
	replayStormMinCredits = 64
	// baseStormMinLoss is the steady background loss rate above which the
	// whole run counts as a replay storm.
	baseStormMinLoss = 0.08
)

// labelEnd is the open upper bound for control-plane labels that span the
// whole scenario (the step clock never reaches it).
const labelEnd = int64(1) << 62

// GroundTruth derives the labeled anomaly windows implied by a datapath
// scenario's fault script and link configuration. Timestamps are virtual
// picoseconds; the run observes [0, 2*Horizon] (work phase plus read-back).
func GroundTruth(s Scenario) []detect.Label {
	s.defaults()
	end := int64(2 * s.Horizon)
	cfg := llc.DefaultConfig()
	if s.LLC != nil {
		cfg = *s.LLC
	}

	var labels []detect.Label
	if cfg.Credits < s.Workers {
		// More concurrent senders than credit slots: the window starves from
		// the first burst, faults or not.
		labels = append(labels, detect.Label{
			Class: detect.CreditStarvation, From: 0, To: end,
		})
	}
	if s.Faults != nil {
		labels = append(labels, faultLabels(s, cfg, end)...)
	}
	sortLabels(labels)
	return labels
}

func faultLabels(s Scenario, cfg llc.Config, end int64) []detect.Label {
	var labels []detect.Label
	clamp := func(t sim.Time) int64 {
		if int64(t) > end {
			return end
		}
		return int64(t)
	}
	// All degradation in a scenario merges into one spanning label: the
	// detector's clear hysteresis can bridge adjacent fault windows, and a
	// scenario's traffic pattern decides which windows it crosses at all —
	// "the link degraded during [first, last]" is the operator-level truth
	// the detector is scored against, not per-window edge alignment.
	degFrom, degTo := int64(-1), int64(-1)
	degrade := func(from, to int64) {
		if degFrom < 0 || from < degFrom {
			degFrom = from
		}
		if to > degTo {
			degTo = to
		}
	}
	if base := s.Faults.Base; base.DropProb > 0 || base.CorruptProb > 0 {
		degrade(0, end)
		// Heavy steady loss must read as a replay storm; fainter loss still
		// replays frames on lucky seeds, so it may (optional label).
		required := base.DropProb+base.CorruptProb >= baseStormMinLoss &&
			cfg.Credits >= replayStormMinCredits
		labels = append(labels, detect.Label{
			Class: detect.ReplayStorm, From: 0, To: end, Optional: !required,
		})
	}
	for _, w := range s.Faults.Windows {
		intensity := w.DropProb + w.CorruptProb
		if intensity <= 0 {
			continue
		}
		from, to := int64(w.From), clamp(w.To)
		degrade(from, to)
		if deadWindow(w, s.Horizon) {
			// A dying link is also a replay storm while it dies: every frame
			// sent into the blackout is retransmitted on the replay timer
			// until bounded retries fence the port.
			labels = append(labels,
				detect.Label{Class: detect.LinkDead, From: from, To: end},
				detect.Label{Class: detect.ReplayStorm, From: from, To: end},
			)
			continue
		}
		// Corruption keeps traffic (and therefore dense retransmission)
		// flowing through an intense window, so a deep credit window must
		// storm; any other lossy window is allowed to (optional label).
		required := intensity >= replayStormMinIntensity && w.CorruptProb > 0 &&
			cfg.Credits >= replayStormMinCredits
		labels = append(labels, detect.Label{
			Class: detect.ReplayStorm, From: from, To: to, Optional: !required,
		})
	}
	if degFrom >= 0 {
		labels = append(labels, detect.Label{
			Class: detect.LinkDegraded, From: degFrom, To: degTo,
		})
	}
	return labels
}

// deadWindow reports whether a fault window scripts a permanently dead link:
// total loss that never lifts within the scenario horizon, so bounded
// retries must fence the port.
func deadWindow(w phy.Window, horizon sim.Time) bool {
	return w.DropProb >= 1 && w.To >= horizon
}

// CPGroundTruth derives the labeled anomaly windows implied by a
// control-plane scenario's transport fault mix and crash script. The fault
// parameters live inside the scenario run functions, so the mapping is by
// catalogue name; timestamps are step-clock nanoseconds and every label
// spans the whole run (the faults are active from boot to heal).
func CPGroundTruth(s CPScenario) []detect.Label {
	var labels []detect.Label
	switch s.Name {
	case "cp-agent-flap":
		// 5% drop / 10% dup / 10% ambiguous transport: lost commands and acks
		// force saga retries, and the scripted agent crash-restarts leave
		// drift the reconciler must repair.
		labels = append(labels,
			detect.Label{Class: detect.SagaRetryStorm, From: 0, To: labelEnd},
			detect.Label{Class: detect.ReconcilerBacklog, From: 0, To: labelEnd},
		)
	case "cp-orchestrator-crash-midsaga":
		// Crash points truncate the run at scripted journal offsets, so how
		// much lossy-transport traffic (and with it retries or reconciler
		// drift) accumulates before the crash is seed-dependent: both labels
		// are optional. The scenario's own invariants cover recovery.
		labels = append(labels,
			detect.Label{Class: detect.SagaRetryStorm, From: 0, To: labelEnd, Optional: true},
			detect.Label{Class: detect.ReconcilerBacklog, From: 0, To: labelEnd, Optional: true},
		)
	case "cp-duplicate-command-storm":
		// 90% dup / 40% ambiguous: ambiguous results force retries (the
		// scenario asserts SagaRetries > 0), and ambiguously-completed
		// commands can leave records the reconciler trues up.
		labels = append(labels,
			detect.Label{Class: detect.SagaRetryStorm, From: 0, To: labelEnd},
			detect.Label{Class: detect.ReconcilerBacklog, From: 0, To: labelEnd, Optional: true},
		)
	}
	sortLabels(labels)
	return labels
}

func sortLabels(labels []detect.Label) {
	sort.Slice(labels, func(i, j int) bool {
		a, b := labels[i], labels[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.To < b.To
	})
}
