package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"thymesisflow/internal/metrics"
)

// runReplayOnce executes one replay over a fresh world and returns the
// report, its JSON encoding, and the stdout table.
func runReplayOnce(t *testing.T, cfg ReplayConfig) (ReplayReport, []byte, string) {
	t.Helper()
	var out bytes.Buffer
	rep, err := Replay(&out, cfg)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return rep, data, out.String()
}

// TestReplayReportByteIdentity is the golden byte-identity discipline the
// chaos and rack reports follow: a fixed seed yields byte-identical report
// JSON and stdout across runs, and a different seed yields a different
// report.
func TestReplayReportByteIdentity(t *testing.T) {
	cfg := ReplayConfig{Seed: 7, Minutes: 1}
	_, json1, out1 := runReplayOnce(t, cfg)
	_, json2, out2 := runReplayOnce(t, cfg)
	if !bytes.Equal(json1, json2) {
		t.Fatalf("same seed produced different report JSON:\n--- run1\n%s\n--- run2\n%s", json1, json2)
	}
	if out1 != out2 {
		t.Fatalf("same seed produced different stdout:\n--- run1\n%s\n--- run2\n%s", out1, out2)
	}
	_, json3, _ := runReplayOnce(t, ReplayConfig{Seed: 8, Minutes: 1})
	if bytes.Equal(json1, json3) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestReplayThroughputAndHealth asserts the acceptance floor across seeds:
// >= 1000 committed sagas per simulated minute against the real saga
// engine with transport faults demonstrably enabled, converged final state,
// and zero invariant violations.
func TestReplayThroughputAndHealth(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, _, _ := runReplayOnce(t, ReplayConfig{Seed: seed, Minutes: 1})
			if rep.SagasPerSimMinute < 1000 {
				t.Fatalf("throughput %.1f sagas/sim-minute, want >= 1000", rep.SagasPerSimMinute)
			}
			if !rep.FaultsEnabled || rep.Transport.Drops == 0 || rep.Transport.Dups == 0 {
				t.Fatalf("fault injection not exercised: %+v", rep.Transport)
			}
			if rep.Counters.SagaRetries == 0 {
				t.Fatal("no saga retries under a lossy transport — faults not reaching the engine")
			}
			if !rep.Reconciler.FinalClean {
				t.Fatalf("final reconcile not clean after %d passes", rep.Reconciler.FinalPasses)
			}
			if rep.Reconciler.StormReconciles == 0 {
				t.Fatal("no flap-storm reconciles recorded")
			}
			if len(rep.Invariants) != 0 {
				t.Fatalf("invariant violations: %v", rep.Invariants)
			}
			if rep.Journal.Entries == 0 || rep.Journal.Bytes == 0 {
				t.Fatal("journal growth not recorded")
			}
			// The stage profiles must cover both ops with percentiles.
			ops := map[string]bool{}
			for _, p := range rep.Profiles {
				ops[p.Op] = true
				if p.Count == 0 || p.P99NS < p.P50NS {
					t.Fatalf("degenerate profile %+v", p)
				}
			}
			if !ops["attach"] || !ops["detach"] {
				t.Fatalf("profiles missing ops: %v", ops)
			}
		})
	}
}

// TestReplayPrometheusGolden locks the replay_* exposition: the exact
// instrument set, and byte-stable output across scrapes (same discipline
// as the cp_*/shard_* Prometheus golden tests).
func TestReplayPrometheusGolden(t *testing.T) {
	rep, _, _ := runReplayOnce(t, ReplayConfig{Seed: 1, Minutes: 1})
	reg := metrics.NewRegistry()
	RegisterReplayMetrics(reg, &rep)

	var a, b bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Prometheus exposition not byte-stable across scrapes")
	}

	var names []string
	for _, line := range strings.Split(a.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{
		"replay_attach_errors",
		"replay_attach_p50_ns",
		"replay_attach_p99_ns",
		"replay_attaches_ok",
		"replay_crashes",
		"replay_detach_errors",
		"replay_detach_p50_ns",
		"replay_detach_p99_ns",
		"replay_detaches_ok",
		"replay_final_attachments",
		"replay_flaps",
		"replay_journal_bytes",
		"replay_journal_entries",
		"replay_reconcile_periodic_sweeps",
		"replay_reconcile_storm_passes",
		"replay_saga_compensations",
		"replay_saga_retries",
		"replay_sagas_committed",
		"replay_sagas_parked",
		"replay_sagas_per_sim_minute",
		"replay_sagas_rejected",
		"replay_scale_attaches",
		"replay_scale_detaches",
		"replay_transport_drops",
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("instrument set drifted:\n got %v\nwant %v", names, want)
	}

	// Spot-check exact series against the report.
	for _, line := range []string{
		fmt.Sprintf("replay_sagas_committed %d\n", rep.SagasCommitted),
		fmt.Sprintf("replay_journal_entries %d\n", rep.Journal.Entries),
		fmt.Sprintf("# TYPE replay_sagas_per_sim_minute gauge\n"),
		fmt.Sprintf("# TYPE replay_sagas_committed counter\n"),
	} {
		if !strings.Contains(a.String(), line) {
			t.Fatalf("exposition missing %q:\n%s", line, a.String())
		}
	}
}

// TestReplayPinnedHash pins the seed-7, one-minute single-node replay
// report across commits: TestReplayReportByteIdentity only compares runs
// within one build, so a refactor that changes a still-deterministic
// report would pass it. A change that alters the report on purpose must
// update this hash.
func TestReplayPinnedHash(t *testing.T) {
	const want = "7b744c561296933854138356695bdb44ce370463b45c9b6cc64a620eefcb1d96"
	_, data, _ := runReplayOnce(t, ReplayConfig{Seed: 7, Minutes: 1})
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("seed-7 replay report hash = %s, want %s", got, want)
	}
}
