package chaos

import (
	"bytes"
	"strings"
	"testing"
)

const testSeed = 20260806

// TestCatalogueSize pins the acceptance floor: the standard campaign must
// carry at least 6 scenarios.
func TestCatalogueSize(t *testing.T) {
	if n := len(Catalogue()); n < 6 {
		t.Fatalf("catalogue has %d scenarios, want >= 6", n)
	}
}

// TestCampaignPasses runs the full standard campaign: every scenario must
// satisfy its losslessness, replay, credit, and escalation invariants.
func TestCampaignPasses(t *testing.T) {
	rep := Campaign(Catalogue(), nil, testSeed, 1, nil)
	for _, sr := range rep.Scenarios {
		if !sr.Passed {
			t.Errorf("scenario %s failed: %s", sr.Name, strings.Join(sr.Failures, "; "))
		}
		if sr.LinesVerified == 0 {
			t.Errorf("scenario %s verified no cachelines", sr.Name)
		}
	}
	if !rep.Passed {
		t.Fatal("campaign failed")
	}
}

// TestScenarioExpectationsExercised spot-checks that the campaign really
// drove the paths it claims to: faults were injected, replays happened,
// escalation latched, detaches completed.
func TestScenarioExpectationsExercised(t *testing.T) {
	rep := Campaign(Catalogue(), nil, testSeed, 1, nil)
	byName := map[string]ScenarioReport{}
	for _, sr := range rep.Scenarios {
		byName[sr.Name] = sr
	}
	if sr := byName["baseline-clean"]; sr.LLC.TxReplayed != 0 || sr.OpsOK != sr.Ops {
		t.Errorf("baseline not clean: %+v", sr.LLC)
	}
	if sr := byName["crc-burst"]; sr.LLC.RxCRCErrors == 0 || sr.LLC.RxCRCErrors != sr.Phy.Corrupted {
		t.Errorf("crc-burst accounting: detected %d, injected %d", sr.LLC.RxCRCErrors, sr.Phy.Corrupted)
	}
	if sr := byName["credit-starvation"]; sr.LLC.CreditStalls == 0 {
		t.Error("credit-starvation never stalled")
	}
	if sr := byName["link-down-escalation"]; sr.LLC.LinkDownEvents == 0 || sr.FinalState != "link-down" {
		t.Errorf("escalation did not latch: %+v state=%s", sr.LLC, sr.FinalState)
	}
	if sr := byName["detach-drain"]; sr.FinalState != "detached" || sr.OpsOK == 0 {
		t.Errorf("detach-drain: state=%s ok=%d", sr.FinalState, sr.OpsOK)
	}
	if sr := byName["detach-force"]; sr.FinalState != "detached" {
		t.Errorf("detach-force: state=%s", sr.FinalState)
	}
	// Degradation curve: higher loss must not improve average latency.
	l2 := byName["sustained-loss-2pct"].AvgLatencyNS
	l10 := byName["sustained-loss-10pct"].AvgLatencyNS
	if l10 < l2 {
		t.Errorf("degradation curve inverted: 10%% loss latency %dns < 2%% loss %dns", l10, l2)
	}
}

// TestCampaignDeterministic requires byte-identical reports for the same
// seed, and different protocol activity for a different seed.
func TestCampaignDeterministic(t *testing.T) {
	a, err := Campaign(Catalogue(), nil, testSeed, 1, nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(Catalogue(), nil, testSeed, 1, nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different campaign reports")
	}
	c, err := Campaign(Catalogue(), nil, testSeed+1, 1, nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports (seed unused?)")
	}
}

// TestSingleScenarioReproducesFromSeed re-runs one scenario alone with the
// campaign seed and requires the identical per-scenario report — the
// property `tfbench -experiment chaos -scenario <name>` relies on.
func TestSingleScenarioReproducesFromSeed(t *testing.T) {
	full := Campaign(Catalogue(), nil, testSeed, 1, nil)
	for _, name := range []string{"crc-burst", "replay-storm", "link-down-escalation"} {
		dp, _, err := Select(name)
		if err != nil || len(dp) != 1 {
			t.Fatalf("scenario %q missing from catalogue: %v", name, err)
		}
		alone, _ := Run(dp[0], testSeed, 1, nil)
		var inFull ScenarioReport
		for _, sr := range full.Scenarios {
			if sr.Name == name {
				inFull = sr
			}
		}
		if alone.Seed != inFull.Seed {
			t.Fatalf("%s: seed %d alone vs %d in campaign", name, alone.Seed, inFull.Seed)
		}
		if alone.LLC != inFull.LLC || alone.Phy != inFull.Phy || alone.OpsOK != inFull.OpsOK {
			t.Fatalf("%s: standalone run diverged from campaign run", name)
		}
	}
}

// TestFindUnknown covers Select's miss path, and its lookup of one
// scenario from either catalogue.
func TestFindUnknown(t *testing.T) {
	if _, _, err := Select("no-such-scenario"); err == nil {
		t.Fatal("Select returned a scenario for an unknown name")
	}
	if dp, cp, err := Select("cp-agent-flap"); err != nil || len(dp) != 0 || len(cp) != 1 {
		t.Fatalf("Select(cp-agent-flap) = %d datapath, %d control-plane, %v", len(dp), len(cp), err)
	}
}

// TestCampaignShardedMatchesSequential asserts the headline sharding
// guarantee at the chaos layer: the full campaign report is byte-identical
// whether each scenario's cluster runs on one kernel or one kernel per host.
// ShardHealth is the one section that describes the runtime rather than the
// simulation, so it is stripped before the cross-shard-count comparison (its
// own determinism is checked separately below).
func TestCampaignShardedMatchesSequential(t *testing.T) {
	stripHealth := func(r Report) Report {
		for i := range r.Scenarios {
			r.Scenarios[i].ShardHealth = nil
		}
		return r
	}
	seqRep := Campaign(Catalogue(), nil, testSeed, 1, nil)
	shardedRep := Campaign(Catalogue(), nil, testSeed, 2, nil)
	for _, sr := range seqRep.Scenarios {
		if sr.ShardHealth != nil {
			t.Fatalf("scenario %s: sequential run reported shard health", sr.Name)
		}
	}
	for _, sr := range shardedRep.Scenarios {
		if sr.ShardHealth == nil {
			t.Fatalf("scenario %s: sharded run reported no shard health", sr.Name)
		}
		if sr.ShardHealth.Windows == 0 || len(sr.ShardHealth.Shards) != 2 {
			t.Fatalf("scenario %s: degenerate shard health %+v", sr.Name, *sr.ShardHealth)
		}
	}
	seq, err := stripHealth(seqRep).JSON()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := stripHealth(shardedRep).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(seq) != string(sharded) {
		t.Fatalf("sharded campaign report diverges from sequential:\nseq:     %s\nsharded: %s", seq, sharded)
	}
}

// TestCampaignShardedHealthDeterministic requires the full sharded report —
// shard-health section included — to be byte-identical across repeated runs
// at the same seed and shard count.
func TestCampaignShardedHealthDeterministic(t *testing.T) {
	a, err := Campaign(Catalogue(), nil, testSeed, 2, nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(Catalogue(), nil, testSeed, 2, nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and shard count produced different shard-health reports")
	}
}
