package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Chrome-trace analysis: the post-processing engine behind cmd/tftrace. It
// re-ingests the Chrome trace-event JSON this package exports (or any trace
// in that shape), turning the recorder from a viewer artifact into an
// analysis tool: per-layer span statistics, the stage spans of the slowest
// transactions, and each stage's share of round-trip time.

// ParsedEvent is one event re-ingested from a Chrome trace-event export.
// Times are virtual picoseconds (the export's fractional microseconds,
// converted back).
type ParsedEvent struct {
	Layer string
	Name  string
	Ph    string // "X" span, "i" instant, "C" counter
	TS    int64  // picoseconds
	Dur   int64  // picoseconds, spans only
	Txn   uint64 // transaction id (args.txn); 0 outside transactions
}

// chromeDoc mirrors the exported JSON object shape.
type chromeDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			Txn uint64 `json:"txn"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// usToPS converts the export's fractional microseconds back to picoseconds.
// Rounding undoes the division's float error, so span times survive the
// round trip exactly.
func usToPS(us float64) int64 { return int64(math.Round(us * 1e6)) }

// ParseChromeTrace re-ingests a Chrome trace-event JSON document. Metadata
// records (thread names) are dropped; span, instant, and counter events are
// returned in timestamp order.
func ParseChromeTrace(r io.Reader) ([]ParsedEvent, error) {
	var doc chromeDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: parse chrome trace: %w", err)
	}
	out := make([]ParsedEvent, 0, len(doc.TraceEvents))
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X", "i", "C":
		default:
			continue // metadata and unknown phases
		}
		out = append(out, ParsedEvent{
			Layer: e.Cat,
			Name:  e.Name,
			Ph:    e.Ph,
			TS:    usToPS(e.TS),
			Dur:   usToPS(e.Dur),
			Txn:   e.Args.Txn,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out, nil
}

// nearestRank returns the q-quantile of ascending, non-empty xs by the
// nearest-rank rule — the element at rank ceil(q·n) — the convention of
// metrics.Histogram.Quantile.
func nearestRank(xs []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// SpanSummary aggregates the spans (or instants) sharing one (layer, name).
type SpanSummary struct {
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Kind    string  `json:"kind"` // "span" or "instant"
	Count   int     `json:"count"`
	TotalNS float64 `json:"total_ns"`
	MeanNS  float64 `json:"mean_ns"`
	P99NS   float64 `json:"p99_ns"`
	MaxNS   float64 `json:"max_ns"`
}

// Summarize groups span and instant events by (layer, name) and returns the
// groups sorted by descending total time (instants, which have no duration,
// sort by count among themselves at the tail).
func Summarize(events []ParsedEvent) []SpanSummary {
	type key struct{ layer, name, kind string }
	durs := make(map[key][]int64)
	for _, e := range events {
		switch e.Ph {
		case "X":
			durs[key{e.Layer, e.Name, "span"}] = append(durs[key{e.Layer, e.Name, "span"}], e.Dur)
		case "i":
			durs[key{e.Layer, e.Name, "instant"}] = append(durs[key{e.Layer, e.Name, "instant"}], 0)
		}
	}
	out := make([]SpanSummary, 0, len(durs))
	for k, ds := range durs {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var total int64
		for _, d := range ds {
			total += d
		}
		s := SpanSummary{
			Layer: k.layer, Name: k.name, Kind: k.kind, Count: len(ds),
			TotalNS: float64(total) / 1e3,
			MeanNS:  float64(total) / float64(len(ds)) / 1e3,
			P99NS:   float64(nearestRank(ds, 0.99)) / 1e3,
			MaxNS:   float64(ds[len(ds)-1]) / 1e3,
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TotalNS != b.TotalNS {
			return a.TotalNS > b.TotalNS
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Name < b.Name
	})
	return out
}

// Transaction is one datapath transaction recorded by Tracer.Txn: the capi
// round-trip span and the stage spans that tile it.
type Transaction struct {
	Root   ParsedEvent
	Stages []ParsedEvent
}

// isRoundTrip reports whether the span is a compute-side capi round trip,
// the root of a transaction.
func isRoundTrip(e ParsedEvent) bool {
	return e.Ph == "X" && e.Layer == LayerCAPI && strings.HasSuffix(e.Name, "_req")
}

// Transactions groups the events carrying a transaction id, in order of
// first appearance. A transaction whose root the ring evicted is dropped:
// the ring evicts oldest first and records the root before its stages, so
// a retained root always comes with all of its stages.
func Transactions(events []ParsedEvent) []Transaction {
	idx := make(map[uint64]int)
	var out []Transaction
	for _, e := range events {
		if e.Txn == 0 || e.Ph != "X" {
			continue
		}
		i, ok := idx[e.Txn]
		if !ok {
			i = len(out)
			idx[e.Txn] = i
			out = append(out, Transaction{})
		}
		if isRoundTrip(e) {
			out[i].Root = e
		} else {
			out[i].Stages = append(out[i].Stages, e)
		}
	}
	kept := out[:0]
	for _, t := range out {
		if t.Root.Txn != 0 {
			kept = append(kept, t)
		}
	}
	return kept
}

// CriticalPath is one slow transaction: its capi round-trip span, its own
// stage spans in time order, and their per-layer rollup.
type CriticalPath struct {
	Root   ParsedEvent   `json:"root"`
	RootNS float64       `json:"root_ns"`
	Stages []ParsedEvent `json:"stages"`
	// ByLayer maps layer -> nanoseconds of the transaction's stage time.
	ByLayer map[string]float64 `json:"by_layer"`
}

// CriticalPaths returns the slowest k transactions (all of them when k <=
// 0), slowest first.
func CriticalPaths(events []ParsedEvent, k int) []CriticalPath {
	txns := Transactions(events)
	sort.SliceStable(txns, func(i, j int) bool { return txns[i].Root.Dur > txns[j].Root.Dur })
	if k > 0 && len(txns) > k {
		txns = txns[:k]
	}
	out := make([]CriticalPath, 0, len(txns))
	for _, t := range txns {
		cp := CriticalPath{Root: t.Root, RootNS: float64(t.Root.Dur) / 1e3, Stages: t.Stages, ByLayer: map[string]float64{}}
		for _, s := range t.Stages {
			cp.ByLayer[s.Layer] += float64(s.Dur) / 1e3
		}
		out = append(out, cp)
	}
	return out
}

// StageShare is one stage's total time across all transactions and its
// share of their summed round-trip time.
type StageShare struct {
	Layer    string  `json:"layer"`
	Stage    string  `json:"stage"`
	TotalNS  float64 `json:"total_ns"`
	SharePct float64 `json:"share_pct"`
}

// StallAttribution splits the summed round-trip time of every transaction
// in a trace across the datapath stages, largest share first.
type StallAttribution struct {
	RoundTrips  int          `json:"round_trips"`
	RoundTripNS float64      `json:"round_trip_total_ns"`
	Stages      []StageShare `json:"stages"`
}

// AttributeStalls sums each stage's spans over every transaction and
// expresses them as shares of total round-trip time. The stages tile each
// round trip, so the shares sum to 100% — the trace-side counterpart of
// latency.Breakdown's SharePct, which it reproduces for the same
// transactions.
func AttributeStalls(events []ParsedEvent) StallAttribution {
	type key struct{ layer, stage string }
	var att StallAttribution
	var rtt int64
	totals := make(map[key]int64)
	for _, t := range Transactions(events) {
		att.RoundTrips++
		rtt += t.Root.Dur
		for _, s := range t.Stages {
			totals[key{s.Layer, s.Name}] += s.Dur
		}
	}
	att.RoundTripNS = float64(rtt) / 1e3
	for k, ps := range totals {
		sh := StageShare{Layer: k.layer, Stage: k.stage, TotalNS: float64(ps) / 1e3}
		if rtt > 0 {
			sh.SharePct = 100 * float64(ps) / float64(rtt)
		}
		att.Stages = append(att.Stages, sh)
	}
	sort.Slice(att.Stages, func(i, j int) bool {
		a, b := att.Stages[i], att.Stages[j]
		if a.TotalNS != b.TotalNS {
			return a.TotalNS > b.TotalNS
		}
		return a.Stage < b.Stage
	})
	return att
}
