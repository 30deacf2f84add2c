// Package metrics provides the measurement primitives used across the
// simulation: streaming histograms (for latency CDFs), the perf-style
// derived metrics (IPC, utilized cores, backend-stall fraction) reported in
// the paper's evaluation, and the Registry through which telemetry leaves a
// run — a named view of read functions, exposed as a JSON snapshot or in
// the Prometheus text format.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a log-bucketed streaming histogram suitable for latency
// distributions spanning many orders of magnitude. Values are float64 in an
// arbitrary unit chosen by the caller (this repo uses microseconds for
// request latencies). Relative bucket error is bounded by the growth factor
// (~1%).
type Histogram struct {
	buckets map[int]int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

// growth is the per-bucket geometric growth factor: 1% relative resolution.
const growth = 1.01

var logGrowth = math.Log(growth)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[int]int64), min: math.Inf(1), max: math.Inf(-1)}
}

func bucketOf(v float64) int {
	if v <= 0 {
		return math.MinInt32
	}
	return int(math.Floor(math.Log(v) / logGrowth))
}

func bucketValue(b int) float64 {
	if b == math.MinInt32 {
		return 0
	}
	// Midpoint of the bucket in linear space.
	lo := math.Exp(float64(b) * logGrowth)
	return lo * (1 + growth) / 2
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the exact sum of all observations (0 if empty).
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean of observations (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the approximate q-quantile (q in [0,1]).
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	keys := h.sortedBuckets()
	var seen int64
	for _, b := range keys {
		seen += h.buckets[b]
		if seen >= target {
			v := bucketValue(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

func (h *Histogram) sortedBuckets() []int {
	keys := make([]int, 0, len(h.buckets))
	for b := range h.buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	return keys
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value    float64 // observation value (caller's unit)
	Fraction float64 // cumulative fraction in (0, 1]
}

// CDF returns the full cumulative distribution, one point per occupied
// bucket, in increasing value order.
func (h *Histogram) CDF() []CDFPoint {
	if h.count == 0 {
		return nil
	}
	keys := h.sortedBuckets()
	out := make([]CDFPoint, 0, len(keys))
	var seen int64
	for _, b := range keys {
		seen += h.buckets[b]
		v := bucketValue(b)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		out = append(out, CDFPoint{Value: v, Fraction: float64(seen) / float64(h.count)})
	}
	return out
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for b, c := range other.buckets {
		h.buckets[b] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Summary returns the snapshot form of the distribution.
func (h *Histogram) Summary() HistogramSummary {
	return HistogramSummary{
		Count: h.Count(), Mean: h.Mean(),
		P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
		P999: h.Quantile(0.999), Max: h.Max(),
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram(empty)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())
	return sb.String()
}
