package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// tail picks the highest percentile of xs that has at least ten samples
// beyond it, and reports it with its label ("p99"). ok is false when xs is
// too small for any of them.
func tail(xs []float64) (label string, v float64, ok bool) {
	for _, q := range tailQuantiles {
		if float64(len(xs))*(1-q) >= 10 {
			return fmt.Sprintf("p%g", q*100), quantile(xs, q), true
		}
	}
	return "", 0, false
}

// timing formats a host timing the way the report states every one: the
// median, the highest percentile with ten samples beyond it, and the count.
func timing(xs []float64, unit string) string {
	s := fmt.Sprintf("p50 %.4g %s", median(xs), unit)
	if label, v, ok := tail(xs); ok {
		s += fmt.Sprintf(", %s %.4g %s", label, v, unit)
	}
	return s + fmt.Sprintf(" (n=%d)", len(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, returning 0 for a zero denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
