package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"

	"thymesisflow/internal/chaos"
	"thymesisflow/internal/core"
	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
)

func detectJSON(t *testing.T, cfg DetectConfig) []byte {
	t.Helper()
	rep, err := Detect(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The shard count is the one field allowed to differ across runs being
	// compared; everything else must be byte-stable.
	rep.Shards = 0
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDetectShardCountInvariant is the closed-loop determinism property:
// the whole scorecard — series counts, anomaly events with their virtual
// timestamps, per-class scores, latency histogram — is byte-identical
// whether the chaos scenarios ran on one kernel or on a sharded group.
func TestDetectShardCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue x 3 shard counts")
	}
	base := detectJSON(t, DetectConfig{Seed: 42, Shards: 1})
	for _, shards := range []int{2, 3} {
		got := detectJSON(t, DetectConfig{Seed: 42, Shards: shards})
		if !bytes.Equal(base, got) {
			t.Fatalf("detect report differs between 1 and %d shards", shards)
		}
	}
}

func TestDetectRepeatRunByteIdentical(t *testing.T) {
	cfg := DetectConfig{Seed: 7, Shards: 1, Scenario: "crc-burst"}
	a := detectJSON(t, cfg)
	b := detectJSON(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed detect runs differ")
	}
}

// TestDetectScorecardGates runs the full catalogue on the default seed and
// asserts the acceptance gates hold: every scenario's own invariants pass
// under recording, and every anomaly class clears precision 0.8 / recall
// 0.9 against the chaos ground truth.
func TestDetectScorecardGates(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue")
	}
	rep, err := Detect(io.Discard, DetectConfig{Seed: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatal("scorecard failed")
	}
	if len(rep.Scenarios) < 14 {
		t.Fatalf("only %d scenarios scored", len(rep.Scenarios))
	}
	for _, s := range rep.Scenarios {
		if !s.ScenarioPassed {
			t.Errorf("scenario %s failed under recording", s.Name)
		}
	}
	for _, c := range rep.Classes {
		if c.Precision < detectMinPrecision || c.Recall < detectMinRecall {
			t.Errorf("class %s: precision %.3f recall %.3f below gates", c.Class, c.Precision, c.Recall)
		}
	}
	if rep.Latency.Count == 0 {
		t.Error("no detection latencies measured")
	}
}

func TestDetectScenarioFilter(t *testing.T) {
	rep, err := Detect(io.Discard, DetectConfig{Seed: 1, Scenario: "cp-duplicate-command-storm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 || rep.Scenarios[0].Domain != "controlplane" {
		t.Fatalf("scenarios = %+v", rep.Scenarios)
	}
	if _, err := Detect(io.Discard, DetectConfig{Scenario: "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestDetectPinnedHash pins the seed-1 full-catalogue scorecard — the
// bytes tfbench -experiment detect -seed 1 -out writes — across
// commits: the determinism tests above only compare runs within one build,
// so a telemetry refactor that shifts a still-deterministic event or series
// count would pass them. A change that alters the scorecard on purpose must
// update this hash.
func TestDetectPinnedHash(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue")
	}
	const want = "31c3323b1a03b0156804f389794b3cc65d49a15599e951ed93f316caa8f83e49"
	rep, err := Detect(io.Discard, DetectConfig{Seed: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(append(data, '\n'))); got != want {
		t.Fatalf("seed-1 detect scorecard hash = %s, want %s", got, want)
	}
}

// TestDetectRulesBindSeries: on recorded datapath and control-plane runs,
// every detector rule's suffix matches at least one series, and only series
// of the family the rule was written for — so a rename cannot silently
// disable a rule, and a new instrument cannot silently feed one (no
// llc.*.link_down_events under the .down rule).
func TestDetectRulesBindSeries(t *testing.T) {
	port := `^llc\.att-\d+\.[pq]\d+\.`
	wire := `^phy\.att-\d+\.c\d+\.(fwd|rev)\.`
	family := map[string]*regexp.Regexp{
		".credit_stalls":       regexp.MustCompile(port + `credit_stalls$`),
		".replay_depth":        regexp.MustCompile(port + `replay_depth$`),
		".tx_replayed":         regexp.MustCompile(port + `tx_replayed$`),
		".down":                regexp.MustCompile(port + `down$`),
		".dropped":             regexp.MustCompile(wire + `dropped$`),
		".corrupted":           regexp.MustCompile(wire + `corrupted$`),
		"cp.saga_retries":      regexp.MustCompile(`^cp\.saga_retries$`),
		"cp.reconcile_repairs": regexp.MustCompile(`^cp\.reconcile_repairs$`),
	}
	dp, _, err := chaos.Select("crc-burst")
	if err != nil {
		t.Fatal(err)
	}
	_, dpSnap := chaos.Run(dp[0], 1, 1, &core.FlightOptions{})
	_, cp, err := chaos.Select("cp-agent-flap")
	if err != nil {
		t.Fatal(err)
	}
	_, cpSnap := chaos.RunCP(cp[0], 1, timeseries.NewRecorder(0))

	check := func(snap timeseries.Snapshot, rules []detect.Rule) {
		for _, r := range rules {
			fam, ok := family[r.Suffix]
			if !ok {
				t.Errorf("rule %s/%s has no declared series family", r.Class, r.Suffix)
				continue
			}
			matched := 0
			for _, ss := range snap.Series {
				if !strings.HasSuffix(ss.Name, r.Suffix) {
					continue
				}
				matched++
				if !fam.MatchString(ss.Name) {
					t.Errorf("rule %s/%s matches %s outside its family", r.Class, r.Suffix, ss.Name)
				}
			}
			if matched == 0 {
				t.Errorf("rule %s/%s matches no recorded series", r.Class, r.Suffix)
			}
		}
	}
	check(dpSnap, detect.DatapathRules())
	check(cpSnap, detect.ControlPlaneRules())
}
