package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestCPCampaignPasses runs the control-plane catalogue: every scenario
// must satisfy the orchestration invariants (no leaked reservations, no
// orphaned donor memory, no half-configured agents, no parked sagas).
func TestCPCampaignPasses(t *testing.T) {
	for _, rep := range RunCPCampaign(CPCatalogue(), testSeed) {
		if !rep.Passed {
			t.Errorf("scenario %s failed: %s", rep.Name, strings.Join(rep.Failures, "; "))
		}
		if rep.Attaches == 0 {
			t.Errorf("scenario %s attached nothing", rep.Name)
		}
	}
}

// TestCPScenariosExerciseFaults spot-checks that each scenario drove the
// machinery it claims to.
func TestCPScenariosExerciseFaults(t *testing.T) {
	byName := map[string]CPScenarioReport{}
	for _, rep := range RunCPCampaign(CPCatalogue(), testSeed) {
		byName[rep.Name] = rep
	}
	if rep := byName["cp-agent-flap"]; rep.Transport.Crashes == 0 || rep.Counters.ReconcileRepairs == 0 {
		t.Errorf("cp-agent-flap: crashes=%d repairs=%d", rep.Transport.Crashes, rep.Counters.ReconcileRepairs)
	}
	if rep := byName["cp-orchestrator-crash-midsaga"]; rep.Crashes == 0 || rep.RecoveredSagas == 0 {
		t.Errorf("cp-orchestrator-crash-midsaga: crashes=%d recovered=%d", rep.Crashes, rep.RecoveredSagas)
	}
	if rep := byName["cp-duplicate-command-storm"]; rep.Transport.Dups == 0 || rep.Counters.SagaRetries == 0 {
		t.Errorf("cp-duplicate-command-storm: dups=%d retries=%d", rep.Transport.Dups, rep.Counters.SagaRetries)
	}
	if rep := byName["cp-ha-leader-kill-midsaga"]; rep.Crashes == 0 || rep.Raft == nil || rep.Raft.LeaderChanges == 0 {
		t.Errorf("cp-ha-leader-kill-midsaga: crashes=%d raft=%+v", rep.Crashes, rep.Raft)
	}
	if rep := byName["cp-ha-minority-partition"]; rep.Raft == nil || !rep.Raft.Converged || rep.Transport.PartitionDrops == 0 {
		t.Errorf("cp-ha-minority-partition: raft=%+v partition_drops=%d", rep.Raft, rep.Transport.PartitionDrops)
	}
	if rep := byName["cp-ha-majority-partition"]; rep.Raft == nil || rep.Raft.FencedWrites == 0 {
		t.Errorf("cp-ha-majority-partition: raft=%+v", rep.Raft)
	}
	if rep := byName["cp-ha-split-brain-fencing"]; rep.Raft == nil || rep.Raft.FencedWrites < 2 || !rep.Raft.Converged {
		t.Errorf("cp-ha-split-brain-fencing: raft=%+v", rep.Raft)
	}
	if rep := byName["cp-ha-follower-lag-catchup"]; rep.Raft == nil || !rep.Raft.Converged || rep.Raft.DroppedMessages == 0 {
		t.Errorf("cp-ha-follower-lag-catchup: raft=%+v", rep.Raft)
	}
}

// TestCPHAGroundTruthLabels: every HA scenario exports ground-truth labels
// (optional — the dominant faults live in the raft layer, outside the
// anomaly rules' scored series).
func TestCPHAGroundTruthLabels(t *testing.T) {
	for _, s := range haCatalogue() {
		labels := CPGroundTruth(s)
		if len(labels) == 0 {
			t.Errorf("%s exports no ground-truth labels", s.Name)
		}
		for _, l := range labels {
			if !l.Optional {
				t.Errorf("%s exports required label %+v; HA labels must be optional", s.Name, l)
			}
		}
	}
}

// TestCPCampaignTraceSummaries asserts every scenario report carries a saga
// trace summary whose aggregated stage durations tile the total wall time
// exactly — the chaos-level form of the tracing acceptance criterion (the
// per-trace invariant is enforced inside verify and would surface as a
// scenario failure).
func TestCPCampaignTraceSummaries(t *testing.T) {
	for _, rep := range RunCPCampaign(CPCatalogue(), testSeed) {
		tr := rep.Trace
		if tr.Sagas == 0 || tr.Events == 0 {
			t.Errorf("%s: empty trace summary: %+v", rep.Name, tr)
			continue
		}
		var sum int64
		for _, st := range tr.Stages {
			sum += st.DurNS
		}
		if sum != tr.TotalNS {
			t.Errorf("%s: stage durations sum to %dns, total is %dns", rep.Name, sum, tr.TotalNS)
		}
		if tr.TotalNS <= 0 {
			t.Errorf("%s: non-positive total trace time %dns", rep.Name, tr.TotalNS)
		}
	}
}

// TestCPCampaignDeterministic requires byte-identical reports for the same
// seed, across multiple seeds.
func TestCPCampaignDeterministic(t *testing.T) {
	for _, seed := range []int64{testSeed, testSeed + 1, testSeed + 2, 7} {
		a, err := json.MarshalIndent(RunCPCampaign(CPCatalogue(), seed), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(RunCPCampaign(CPCatalogue(), seed), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: report not byte-identical across runs", seed)
		}
	}
	a, _ := json.Marshal(RunCPCampaign(CPCatalogue(), testSeed))
	b, _ := json.Marshal(RunCPCampaign(CPCatalogue(), testSeed+1))
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestCPCampaignPinnedHash pins the seed-1 control-plane campaign report
// (three single-node and five cp-ha-* scenarios) across commits: the
// determinism tests above only compare runs within one build, so a
// refactor that changes a still-deterministic report would pass them. A
// change that alters the report on purpose must update this hash.
func TestCPCampaignPinnedHash(t *testing.T) {
	const want = "aea99206e16d9f32ea108582a2cf00f68640534f2c5bbeabfa8a21368dad63a1"
	data, err := json.MarshalIndent(RunCPCampaign(CPCatalogue(), 1), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("seed-1 campaign report hash = %s, want %s", got, want)
	}
}
