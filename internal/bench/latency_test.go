package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestLatencyAttrReconciles is the acceptance gate of the attribution
// pipeline: the per-stage means must sum to the measured end-to-end latency
// (within 1%, zero skewed records) and the fixed crossing stages must
// reconstruct the paper-calibrated ~950 ns flit RTT.
func TestLatencyAttrReconciles(t *testing.T) {
	b, err := MeasureLatencyAttrShards(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBreakdown(b); err != nil {
		t.Fatal(err)
	}
	// On an uncontended single-disaggregated link the crossings are exact,
	// not just within tolerance.
	if b.CrossingsMeanNS != 950.0 {
		t.Fatalf("crossing stages sum %.3f ns, want exactly 950 on a quiet link", b.CrossingsMeanNS)
	}
}

func TestLatencyAttrOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := LatencyAttrShards(&buf, "", 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"capi_cross", "c1_service", "end_to_end", "950"} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown table missing %q:\n%s", want, out)
		}
	}
}

// TestLatencyAttrShardedMatchesSequential: the attribution breakdown must be
// byte-identical whether the testbed runs on one kernel or one per host.
func TestLatencyAttrShardedMatchesSequential(t *testing.T) {
	seq, err := MeasureLatencyAttrShards(1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := MeasureLatencyAttrShards(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, sharded) {
		t.Fatalf("sharded breakdown diverges from sequential:\nseq:     %+v\nsharded: %+v", seq, sharded)
	}
}
