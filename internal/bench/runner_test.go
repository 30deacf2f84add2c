package bench

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunnerExecutesEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		const n = 100
		var counts [n]atomic.Int32
		NewRunner(workers).Run(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestRunnerWorkerClamping(t *testing.T) {
	if got := NewRunner(0).Workers(1000); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0-valued runner) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewRunner(8).Workers(3); got != 3 {
		t.Fatalf("Workers clamp to cell count: got %d, want 3", got)
	}
	if got := NewRunner(5).Workers(100); got != 5 {
		t.Fatalf("Workers = %d, want 5", got)
	}
}

func TestRunnerPropagatesLowestIndexPanic(t *testing.T) {
	defer func() {
		p := recover()
		if p != "cell 3 failed" {
			t.Fatalf("recovered %v, want the lowest-index panic", p)
		}
	}()
	NewRunner(4).Run(16, func(i int) {
		if i == 3 || i == 11 {
			panic("cell " + string(rune('0'+i%10)) + " failed")
		}
	})
	t.Fatal("run did not propagate the panic")
}

// TestParallelOutputByteIdentical is the determinism contract of the
// parallel experiment engine: the merged output of a many-worker run must
// be byte-for-byte the output of the sequential path. Fig5Stream(Quick)
// exercises nine kernels, the heaviest shared workload (STREAM), and the
// merge of both table rows and returned metrics.
func TestParallelOutputByteIdentical(t *testing.T) {
	var seq, par bytes.Buffer
	seqRes := NewRunner(1).Fig5Stream(&seq, Quick)
	parRes := NewRunner(0).Fig5Stream(&par, Quick)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel Fig5Stream output diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.String(), par.String())
	}
	if len(seqRes) != len(parRes) {
		t.Fatalf("result cardinality diverged: %d vs %d", len(seqRes), len(parRes))
	}
	for k, v := range seqRes {
		if parRes[k] != v {
			t.Fatalf("metric %q diverged: sequential %v, parallel %v", k, v, parRes[k])
		}
	}
}

// TestParallelFig7ByteIdentical covers the multi-cells-per-row merge path
// (rows are assembled from five cells each).
func TestParallelFig7ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig7 comparison in -short mode")
	}
	var seq, par bytes.Buffer
	NewRunner(1).Fig7Throughput(&seq, Quick)
	NewRunner(0).Fig7Throughput(&par, Quick)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel Fig7Throughput output diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.String(), par.String())
	}
}

// TestParallelFig9PinnedHash runs Figure 9's cells in parallel, all
// reading one shared index set, and checks the text against the
// sequential run's pinned hash.
func TestParallelFig9PinnedHash(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig9 run in -short mode")
	}
	var par strings.Builder
	NewRunner(0).Fig9Search(&par, Quick)
	checkPinnedHash(t, "parallel Figure 9", par.String(), fig9QuickHash)
}

// TestParallelFig8PinnedHash runs Figure 8's cells on four workers, so the
// four single-instance configurations wait on one shared warm-up
// recording, and checks the text against the sequential run's pinned hash.
func TestParallelFig8PinnedHash(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig8 run in -short mode")
	}
	var par strings.Builder
	NewRunner(4).Fig8Memcached(&par, Quick)
	checkPinnedHash(t, "parallel Figure 8", par.String(), fig8QuickHash)
}
