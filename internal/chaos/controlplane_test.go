package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// cpCampaign runs the whole control-plane catalogue under seed.
func cpCampaign(seed int64) []CPScenarioReport {
	return Campaign(nil, CPCatalogue(), seed, 1, nil).ControlPlane
}

// TestCPCampaignPasses runs the control-plane catalogue: every scenario
// must satisfy the orchestration invariants (no leaked reservations, no
// orphaned donor memory, no half-configured agents, no parked sagas).
func TestCPCampaignPasses(t *testing.T) {
	for _, rep := range cpCampaign(testSeed) {
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
	for _, rep := range cpCampaign(testSeed) {
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
}

// TestCPCampaignTraceSummaries asserts every scenario report carries a saga
// trace summary whose aggregated stage durations tile the total wall time
// exactly — the chaos-level form of the tracing acceptance criterion (the
// per-trace invariant is enforced inside verify and would surface as a
// scenario failure).
func TestCPCampaignTraceSummaries(t *testing.T) {
	for _, rep := range cpCampaign(testSeed) {
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
		a, err := json.MarshalIndent(cpCampaign(seed), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(cpCampaign(seed), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: report not byte-identical across runs", seed)
		}
	}
	a, _ := json.Marshal(cpCampaign(testSeed))
	b, _ := json.Marshal(cpCampaign(testSeed + 1))
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestCPCampaignPinnedHash pins the seed-1 control-plane campaign report
// across commits: the determinism tests above only compare runs within one
// build, so a refactor that changes a still-deterministic report would pass
// them. A change that alters the report on purpose must update this hash.
func TestCPCampaignPinnedHash(t *testing.T) {
	const want = "45cf53c836f24bc9096db32b7249222ced81553a55db0f08e5a582a1d6e453f0"
	data, err := json.MarshalIndent(cpCampaign(1), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("seed-1 campaign report hash = %s, want %s", got, want)
	}
}
