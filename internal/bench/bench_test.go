package bench

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"thymesisflow/internal/core"
	"thymesisflow/internal/endpoint"
	"thymesisflow/internal/sim"
)

func TestRTTWithinBudget(t *testing.T) {
	avg := RTT(io.Discard)
	// The measured load includes the 950ns datapath RTT plus donor DRAM
	// and framing/serialization; it must sit just above the budget.
	if avg < endpoint.DatapathRTT {
		t.Fatalf("measured RTT %v below the hardware budget %v", avg, endpoint.DatapathRTT)
	}
	if avg > endpoint.DatapathRTT+400*sim.Nanosecond {
		t.Fatalf("measured RTT %v too far above the 950ns budget", avg)
	}
}

func TestFig1Shape(t *testing.T) {
	study := Fig1(io.Discard, Quick)
	if study.Disagg.FragmentationCPU >= study.Fixed.FragmentationCPU ||
		study.Disagg.FragmentationMem >= study.Fixed.FragmentationMem {
		t.Fatalf("disaggregation did not reduce fragmentation: %+v", study)
	}
	if study.Disagg.OffMem <= study.Fixed.OffMem {
		t.Fatalf("disaggregation did not free memory modules: %+v", study)
	}
	// Fixed model: memory strands more than CPU, as in the Google trace.
	if study.Fixed.FragmentationMem <= study.Fixed.FragmentationCPU {
		t.Fatalf("fixed model: memory should strand more than CPU: %+v", study)
	}
}

func TestFig5Shape(t *testing.T) {
	var sb strings.Builder
	res := Fig5Stream(&sb, Quick)
	single8 := res["single-disaggregated/8/copy"]
	bonded8 := res["bonding-disaggregated/8/copy"]
	inter8 := res["interleaved/8/copy"]
	single16 := res["single-disaggregated/16/copy"]
	if single8 < 10 || single8 > 12.6 {
		t.Fatalf("single@8 copy = %.2f, want near the 12.5 channel max", single8)
	}
	gain := bonded8/single8 - 1
	if gain < 0.15 || gain > 0.55 {
		t.Fatalf("bonding gain = %.0f%%, want ~30%%", gain*100)
	}
	if inter8 <= bonded8 {
		t.Fatalf("interleaved (%.2f) must outperform bonding (%.2f)", inter8, bonded8)
	}
	if single16 >= single8 {
		t.Fatalf("16 threads (%.2f) must fall below 8 (%.2f): saturation", single16, single8)
	}
	if !strings.Contains(sb.String(), "Figure 5") {
		t.Fatal("harness did not print the table")
	}
}

func TestFig7Shape(t *testing.T) {
	res := Fig7Throughput(io.Discard, Quick)
	local4 := res["A/4/local"]
	single4 := res["A/4/single-disaggregated"]
	local32 := res["A/32/local"]
	single32 := res["A/32/single-disaggregated"]
	if single4 >= local4*0.97 {
		t.Fatalf("A@4p: single %.0f not clearly below local %.0f", single4, local4)
	}
	if single32 < local32*0.85 {
		t.Fatalf("A@32p: single %.0f too far below local %.0f", single32, local32)
	}
	eLocal := res["E/4/local"]
	eSingle := res["E/4/single-disaggregated"]
	if eSingle < eLocal*0.9 {
		t.Fatalf("E: single %.0f vs local %.0f should be similar", eSingle, eLocal)
	}
}

// Pinned SHA-256 digests of the quick-scale Figure 8 and Figure 9 text.
// The shape tests only check orderings, so a refactor that moves a
// still-plausible number would pass them; these hashes catch it. A change
// that alters a figure on purpose must update its hash.
const (
	fig8QuickHash = "0e7f181c7fe79085c947808568029cd5f7cf3166ffcd8611a49421e5615fa4f2"
	fig9QuickHash = "e7245f5fc665f67217d7370a5f4639ba49c182c4d7f2ab916e55689eb57a34b9"
)

// checkPinnedHash fails t when text does not hash to want.
func checkPinnedHash(t *testing.T, name, text, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != want {
		t.Errorf("quick %s text hash = %s, want %s; text:\n%s", name, got, want, text)
	}
}

func TestFig8Shape(t *testing.T) {
	var sb strings.Builder
	res := Fig8Memcached(&sb, Quick)
	checkPinnedHash(t, "Figure 8", sb.String(), fig8QuickHash)
	local := res[core.ConfigLocal].GetLatency.Mean()
	single := res[core.ConfigSingleDisaggregated].GetLatency.Mean()
	bonding := res[core.ConfigBondingDisaggregated].GetLatency.Mean()
	inter := res[core.ConfigInterleaved].GetLatency.Mean()
	scale := res[core.ConfigScaleOut].GetLatency.Mean()
	// Paper ordering: local < interleaved < single < bonding < scale-out.
	if !(local < inter && inter < single && single < bonding && bonding < scale) {
		t.Fatalf("latency ordering violated: %0.f %0.f %0.f %0.f %0.f",
			local, inter, single, bonding, scale)
	}
	if single/local > 1.15 {
		t.Fatalf("single-disaggregated %.0f more than 15%% over local %.0f", single, local)
	}
}

func TestFig6ProfileOutput(t *testing.T) {
	var sb strings.Builder
	Fig6Profile(&sb, Quick)
	out := sb.String()
	for _, want := range []string{"Figure 6", "paper stall fractions", "A", "C"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig6 output missing %q", want)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	var sb strings.Builder
	res := Fig9Search(&sb, Quick)
	checkPinnedHash(t, "Figure 9", sb.String(), fig9QuickHash)
	// RTQ: scale-out beats local; single-disaggregated is the worst.
	if res["RTQ/32/scale-out"] <= res["RTQ/32/local"] {
		t.Fatalf("RTQ@32: scale-out %.0f <= local %.0f",
			res["RTQ/32/scale-out"], res["RTQ/32/local"])
	}
	if res["RTQ/32/single-disaggregated"] >= res["RTQ/32/interleaved"] {
		t.Fatal("RTQ@32: single should trail interleaved")
	}
	// MA at 5 shards: all five configurations within 10%.
	base := res["MA/5/local"]
	for _, cfg := range []string{"single-disaggregated", "bonding-disaggregated", "interleaved", "scale-out"} {
		v := res["MA/5/"+cfg]
		if v < base*0.9 || v > base*1.1 {
			t.Fatalf("MA@5: %s %.0f not within 10%% of local %.0f", cfg, v, base)
		}
	}
	// Nested challenges degrade with shard count.
	if res["RNQIHBS/32/local"] >= res["RNQIHBS/5/local"] {
		t.Fatal("RNQIHBS did not degrade with shards")
	}
}

func TestProjectionSwitchingOrdering(t *testing.T) {
	direct := measureSwitchedLoad(nil)
	cc := fabricCircuit()
	pc := fabricPacket()
	circuit := measureSwitchedLoad(&cc)
	packet := measureSwitchedLoad(&pc)
	if !(direct < circuit && circuit < packet) {
		t.Fatalf("fabric ordering violated: direct=%v circuit=%v packet=%v", direct, circuit, packet)
	}
}

func TestAblationsRun(t *testing.T) {
	var sb strings.Builder
	AblationReplay(&sb)
	AblationBonding(&sb)
	AblationMigration(&sb)
	out := sb.String()
	for _, want := range []string{"A1", "A2", "A3", "pages-migrated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}
