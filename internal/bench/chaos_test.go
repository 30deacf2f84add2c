package bench

import (
	"bytes"
	"testing"

	"thymesisflow/internal/chaos"
)

// TestChaosGoldenAcrossParallelism is the golden determinism check: the
// same campaign seed must produce a byte-identical campaign report JSON
// whether the scenarios run sequentially or across four workers.
func TestChaosGoldenAcrossParallelism(t *testing.T) {
	const seed = 20260806
	cat := chaos.Catalogue()

	serial, err := NewRunner(1).ChaosShards(cat, seed, 1).JSON()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(4).ChaosShards(cat, seed, 1).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatal("parallel campaign report differs from serial run for the same seed")
	}

	// The parallel path must agree with the chaos package's own serial
	// campaign runner too.
	direct, err := chaos.RunCampaignSharded(cat, seed, 1).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, direct) {
		t.Fatal("bench campaign report differs from chaos.RunCampaignSharded")
	}
}
