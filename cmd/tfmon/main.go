// Command tfmon is the flight-recorder analysis tool: it reads a frozen
// time-series snapshot — the binary TFTS export of GET
// /v1/timeseries?format=binary, or the JSON form of the same endpoint —
// renders a unicode sparkline per series, replays the snapshot through the
// online anomaly detector, and draws the detected anomalies on a shared
// timeline.
//
//	tfmon flight.tfts                   # sparklines + anomaly timeline
//	tfmon -rules cp flight.json         # control-plane rules only
//	tfmon -prefix llc. flight.tfts      # restrict to one series family
//	tfmon -json flight.tfts             # machine-readable output
//
// Counter series sparkline their per-tick deltas (the cumulative total is a
// monotone ramp that hides every feature); gauge series sparkline raw
// values. Output is deterministic for a given snapshot and flag set, so
// tfmon runs byte-identically over the seeded chaos exports.
//
// Exits non-zero when the snapshot holds no series: an empty export is
// almost always a collection mistake (recorder off, wrong file, truncated
// download), not a quiet fabric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
)

// chartWidth is the sparkline and timeline width in cells.
const chartWidth = 48

func main() {
	rules := flag.String("rules", "all", "anomaly rule catalogue to replay: datapath|cp|all")
	prefix := flag.String("prefix", "", "restrict analysis to series whose name starts with this prefix")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of sparklines")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tfmon [-rules datapath|cp|all] [-prefix P] [-json] <snapshot>")
		os.Exit(2)
	}
	ruleSet, err := ruleCatalogue(*rules)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfmon: %v\n", err)
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfmon: %v\n", err)
		os.Exit(1)
	}
	snap, err := timeseries.DecodeSnapshotAny(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfmon: %s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}
	if *prefix != "" {
		snap = snap.Filter(func(name string) bool { return strings.HasPrefix(name, *prefix) })
	}
	if len(snap.Series) == 0 {
		fmt.Fprintf(os.Stderr, "tfmon: %s holds no series (recorder disabled, or a truncated export?)\n", flag.Arg(0))
		os.Exit(1)
	}

	events := detect.Analyze(snap, ruleSet)

	if *jsonOut {
		out := analysisJSON(snap, events)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "tfmon: %v\n", err)
			os.Exit(1)
		}
		return
	}
	render(os.Stdout, snap, events, chartWidth)
}

// ruleCatalogue maps the -rules flag to a detector rule set.
func ruleCatalogue(name string) ([]detect.Rule, error) {
	switch name {
	case "datapath":
		return detect.DatapathRules(), nil
	case "cp":
		return detect.ControlPlaneRules(), nil
	case "all":
		return append(detect.DatapathRules(), detect.ControlPlaneRules()...), nil
	}
	return nil, fmt.Errorf("unknown rule catalogue %q (want datapath, cp, or all)", name)
}

// seriesStat is the per-series JSON summary.
type seriesStat struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points int     `json:"points"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Last   float64 `json:"last"`
}

func analysisJSON(snap timeseries.Snapshot, events []detect.Event) any {
	stats := make([]seriesStat, 0, len(snap.Series))
	for _, ss := range snap.Series {
		mn, mx, last := rawStats(ss.Points)
		stats = append(stats, seriesStat{
			Name: ss.Name, Kind: ss.Kind, Points: len(ss.Points),
			Min: mn, Max: mx, Last: last,
		})
	}
	totals := make(map[string]int)
	for _, e := range events {
		totals[e.Class]++
	}
	return struct {
		Series []seriesStat   `json:"series"`
		Events []detect.Event `json:"events"`
		Totals map[string]int `json:"totals"`
	}{stats, events, totals}
}

// render draws the human-readable report: one sparkline row per series,
// then every anomaly as a bar on a shared timeline spanning the snapshot.
func render(w *os.File, snap timeseries.Snapshot, events []detect.Event, width int) {
	minTS, maxTS := timeDomain(snap)
	fmt.Fprintf(w, "%d series, ticks %d..%d\n\n", len(snap.Series), minTS, maxTS)

	nameW := len("series")
	for _, ss := range snap.Series {
		if len(ss.Name) > nameW {
			nameW = len(ss.Name)
		}
	}
	fmt.Fprintf(w, "%-*s %-7s %6s %12s %12s %12s\n",
		nameW, "series", "kind", "points", "min", "max", "last")
	for _, ss := range snap.Series {
		mn, mx, last := rawStats(ss.Points)
		vals := rawValues(ss)
		fmt.Fprintf(w, "%-*s %-7s %6d %12.4g %12.4g %12.4g  %s\n",
			nameW, ss.Name, ss.Kind, len(ss.Points), mn, mx, last, sparkline(vals, width))
	}

	if len(events) == 0 {
		fmt.Fprintf(w, "\nno anomalies\n")
		return
	}
	fmt.Fprintf(w, "\n%d anomalies\n", len(events))
	classW := len("class")
	for _, e := range events {
		if len(e.Class) > classW {
			classW = len(e.Class)
		}
	}
	for _, e := range events {
		state := fmt.Sprintf("%d..%d", e.OnsetTS, e.ClearTS)
		if e.ClearTS == 0 {
			state = fmt.Sprintf("%d.. (open)", e.OnsetTS)
		}
		fmt.Fprintf(w, "  %-*s %s  peak %.4g, %d ticks, %s\n",
			classW, e.Class, eventBar(e, minTS, maxTS, width), e.Peak, e.Ticks, e.Series)
		fmt.Fprintf(w, "  %-*s %s\n", classW, "", state)
	}
}

// rawStats summarizes the raw point values (cumulative for counters).
func rawStats(points []timeseries.Point) (mn, mx, last float64) {
	if len(points) == 0 {
		return 0, 0, 0
	}
	mn, mx = points[0].V, points[0].V
	for _, p := range points {
		if p.V < mn {
			mn = p.V
		}
		if p.V > mx {
			mx = p.V
		}
	}
	return mn, mx, points[len(points)-1].V
}

// rawValues extracts the values a sparkline should show: raw levels for
// gauges, consecutive deltas for counters (clamped at zero across resets).
func rawValues(ss timeseries.SeriesSnapshot) []float64 {
	out := make([]float64, 0, len(ss.Points))
	if ss.Kind != timeseries.Counter.String() {
		for _, p := range ss.Points {
			out = append(out, p.V)
		}
		return out
	}
	for i := 1; i < len(ss.Points); i++ {
		d := ss.Points[i].V - ss.Points[i-1].V
		if d < 0 {
			d = 0
		}
		out = append(out, d)
	}
	return out
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values into width cells, averaging each cell's bucket
// and scaling min..max across the eight block glyphs.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if width > len(vals) {
		width = len(vals)
	}
	cells := make([]float64, width)
	for i := 0; i < width; i++ {
		lo, hi := i*len(vals)/width, (i+1)*len(vals)/width
		sum := 0.0
		for _, v := range vals[lo:hi] {
			sum += v
		}
		cells[i] = sum / float64(hi-lo)
	}
	mn, mx := cells[0], cells[0]
	for _, v := range cells {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	var b strings.Builder
	for _, v := range cells {
		level := 0
		if mx > mn {
			level = int((v - mn) / (mx - mn) * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[level])
	}
	return b.String()
}

// eventBar draws one anomaly's extent on a timeline spanning [minTS, maxTS].
// Open anomalies (ClearTS == 0) extend to the end of the snapshot.
func eventBar(e detect.Event, minTS, maxTS int64, width int) string {
	span := maxTS - minTS
	if span <= 0 {
		span = 1
	}
	clear := e.ClearTS
	if clear == 0 {
		clear = maxTS
	}
	lo := int(int64(width) * (e.OnsetTS - minTS) / span)
	hi := int(int64(width) * (clear - minTS) / span)
	if lo < 0 {
		lo = 0
	}
	if hi >= width {
		hi = width - 1
	}
	if hi < lo {
		hi = lo
	}
	bar := make([]rune, width)
	for i := range bar {
		switch {
		case i >= lo && i <= hi:
			bar[i] = '█'
		default:
			bar[i] = '·'
		}
	}
	return "|" + string(bar) + "|"
}

// timeDomain returns the min and max timestamps across every series.
func timeDomain(snap timeseries.Snapshot) (minTS, maxTS int64) {
	first := true
	for _, ss := range snap.Series {
		for _, p := range ss.Points {
			if first || p.TS < minTS {
				minTS = p.TS
			}
			if first || p.TS > maxTS {
				maxTS = p.TS
			}
			first = false
		}
	}
	return minTS, maxTS
}
