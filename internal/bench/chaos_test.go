package bench

import (
	"bytes"
	"testing"

	"thymesisflow/internal/chaos"
)

// TestChaosGoldenAcrossParallelism is the golden determinism check: the
// same campaign seed must produce a byte-identical campaign report JSON
// whether the scenarios of both catalogues run in order or across four
// workers of the runner's cell loop.
func TestChaosGoldenAcrossParallelism(t *testing.T) {
	const seed = 20260806
	dp, cp, err := chaos.Select("")
	if err != nil {
		t.Fatal(err)
	}

	serial, err := chaos.Campaign(dp, cp, seed, 1, nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := chaos.Campaign(dp, cp, seed, 1, NewRunner(4).Run).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatal("parallel campaign report differs from serial run for the same seed")
	}
}
