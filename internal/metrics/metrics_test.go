package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v, want 1/100", h.Min(), h.Max())
	}
	if p50 := h.Quantile(0.5); p50 < 45 || p50 > 56 {
		t.Fatalf("p50 = %v, want ~50", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 94 || p99 > 100 {
		t.Fatalf("p99 = %v, want ~99", p99)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.CDF() != nil {
		t.Fatal("empty histogram should report zeros and nil CDF")
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(5)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 {
		t.Fatalf("min = %v, want 0", h.Min())
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		h.Observe(math.Exp(rng.NormFloat64())) // lognormal
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction < cdf[i-1].Fraction {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, cdf[i-1], cdf[i])
		}
	}
	last := cdf[len(cdf)-1]
	if math.Abs(last.Fraction-1.0) > 1e-12 {
		t.Fatalf("CDF does not reach 1.0: %v", last.Fraction)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 50; i++ {
		a.Observe(float64(i))
	}
	for i := 51; i <= 100; i++ {
		b.Observe(float64(i))
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", a.Count())
	}
	if a.Min() != 1 || a.Max() != 100 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if m := a.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("merged mean = %v", m)
	}
}

// Property: merging two histograms is indistinguishable from observing the
// whole dataset sequentially — for any values and any split point, Count,
// Min, Max, Mean and the quantiles of merge(h(left), h(right)) equal those
// of h(left ++ right). Exact equality holds because Merge adds raw buckets
// and sums rather than resampling.
func TestQuickMergeMatchesSequential(t *testing.T) {
	f := func(raw []uint32, split uint8) bool {
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r % 1000000) // includes 0: the <=0 bucket
		}
		cut := 0
		if len(vals) > 0 {
			cut = int(split) % (len(vals) + 1)
		}
		left, right, seq := NewHistogram(), NewHistogram(), NewHistogram()
		for _, v := range vals[:cut] {
			left.Observe(v)
		}
		for _, v := range vals[cut:] {
			right.Observe(v)
		}
		for _, v := range vals {
			seq.Observe(v)
		}
		left.Merge(right)
		if left.Count() != seq.Count() || left.Min() != seq.Min() || left.Max() != seq.Max() {
			return false
		}
		if math.Abs(left.Mean()-seq.Mean()) > 1e-9*math.Max(1, math.Abs(seq.Mean())) {
			return false
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			if left.Quantile(q) != seq.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile approximation error is within the bucket resolution
// (1%) plus bucketing slack for any positive dataset.
func TestQuickQuantileAccuracy(t *testing.T) {
	f := func(raw []uint32) bool {
		vals := make([]float64, 0, len(raw))
		h := NewHistogram()
		for _, r := range raw {
			v := float64(r%1000000) + 1
			vals = append(vals, v)
			h.Observe(v)
		}
		if len(vals) == 0 {
			return true
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			idx := int(math.Ceil(q*float64(len(vals)))) - 1
			if idx < 0 {
				idx = 0
			}
			exact := vals[idx]
			approx := h.Quantile(q)
			if exact == 0 {
				continue
			}
			if math.Abs(approx-exact)/exact > 0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPerfSampleDerived(t *testing.T) {
	s := PerfSample{
		Instructions:  1000,
		Cycles:        2000,
		StallBackend:  1110,
		StallFrontend: 200,
		TaskClockPS:   5_000_000,
		WindowPS:      10_000_000,
	}
	if ipc := s.ThreadIPC(); math.Abs(ipc-0.5) > 1e-12 {
		t.Fatalf("thread IPC = %v, want 0.5", ipc)
	}
	if ucc := s.UtilizedCores(); math.Abs(ucc-0.5) > 1e-12 {
		t.Fatalf("UCC = %v, want 0.5", ucc)
	}
	if pkg := s.PackageIPC(); math.Abs(pkg-0.25) > 1e-12 {
		t.Fatalf("package IPC = %v, want 0.25", pkg)
	}
	if bs := s.BackendStallFraction(); math.Abs(bs-0.555) > 1e-12 {
		t.Fatalf("backend stall = %v, want 0.555", bs)
	}
}

func TestPerfSampleAdd(t *testing.T) {
	var total PerfSample
	total.Add(PerfSample{Instructions: 10, Cycles: 20, TaskClockPS: 100, WindowPS: 1000})
	total.Add(PerfSample{Instructions: 30, Cycles: 40, TaskClockPS: 300, WindowPS: 2000})
	if total.Instructions != 40 || total.Cycles != 60 || total.TaskClockPS != 400 {
		t.Fatalf("bad accumulation: %+v", total)
	}
	if total.WindowPS != 2000 {
		t.Fatalf("window should take max: %d", total.WindowPS)
	}
}
