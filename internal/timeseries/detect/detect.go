// Package detect is the online anomaly detector over flight-recorder
// series: threshold rules with onset/clear hysteresis, evaluated per
// (rule, series) pair, emitting typed anomaly events. The detector
// is deliberately rules-based and allocation-light — it runs inline in tfd
// and inside seeded chaos scoring, where every emitted event (class, onset,
// clear, evidence) must be a pure function of the input points.
package detect

import (
	"sort"
	"strings"
	"sync"

	"thymesisflow/internal/timeseries"
)

// Anomaly classes.
const (
	CreditStarvation  = "CreditStarvation"
	ReplayStorm       = "ReplayStorm"
	LinkDegraded      = "LinkDegraded"
	LinkDead          = "LinkDead"
	SagaRetryStorm    = "SagaRetryStorm"
	ReconcilerBacklog = "ReconcilerBacklog"
)

// Classes lists every anomaly class in stable (sorted) order — consumers
// that emit a fixed metric or report shape per class iterate this instead
// of a map.
func Classes() []string {
	return []string{
		CreditStarvation, LinkDead, LinkDegraded,
		ReconcilerBacklog, ReplayStorm, SagaRetryStorm,
	}
}

// Rule fires one anomaly class from one family of series. A rule matches
// every series whose name ends in Suffix, keeping independent state per
// matched series (one flapping link must not mask another).
type Rule struct {
	Class  string
	Suffix string

	// Delta diffs consecutive points before thresholding — the reading for
	// cumulative counter series. Gauge series threshold the raw value.
	Delta bool

	// Threshold is the absolute trigger level (after delta).
	Threshold float64

	// OnsetCount triggering readings in a row open an event (0 selects 1);
	// ClearCount quiet readings in a row close it (0 selects 3). Latch
	// suppresses clearing entirely — terminal states like link death.
	OnsetCount int
	ClearCount int
	Latch      bool
}

// Event is one detected anomaly: a typed class, the series evidence that
// fired it, and the onset/clear timestamps in that series' tick domain.
// ClearTS == 0 means the anomaly was still active at the end of the data.
type Event struct {
	Class   string  `json:"class"`
	Series  string  `json:"series"`
	OnsetTS int64   `json:"onset_ts"`
	ClearTS int64   `json:"clear_ts,omitempty"`
	Peak    float64 `json:"peak"`
	Ticks   int     `json:"ticks"` // triggering readings inside the event
}

// ruleState is the per-(rule, series) online state machine.
type ruleState struct {
	rule   *Rule
	series string

	havePrev bool
	prev     float64 // previous raw value (delta rules)

	hot   int // consecutive triggering readings
	quiet int // consecutive quiet readings while open

	open       bool
	onsetTS    int64
	pendingTS  int64 // timestamp of the first reading of the current hot run
	clearCand  int64 // timestamp of the first quiet reading while open
	peak       float64
	ticksInEvt int
}

// Detector evaluates a rule set online. Feed points per series in
// timestamp order (Observe), or replay a whole snapshot (Analyze). Safe
// for concurrent use.
type Detector struct {
	rules []Rule

	mu     sync.Mutex
	states map[string]*ruleState // key: rule index + series name
	events []Event
	total  map[string]uint64 // per-class event count, incl. open
}

// New returns a detector over the given rule set.
func New(rules []Rule) *Detector {
	return &Detector{
		rules:  rules,
		states: make(map[string]*ruleState),
		total:  make(map[string]uint64),
	}
}

// Observe feeds one sample of the named series through every matching rule.
func (d *Detector) Observe(series string, ts int64, v float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.rules {
		r := &d.rules[i]
		if !strings.HasSuffix(series, r.Suffix) {
			continue
		}
		key := string(rune('0'+i)) + "|" + series
		st := d.states[key]
		if st == nil {
			st = &ruleState{rule: r, series: series}
			d.states[key] = st
		}
		d.step(st, series, ts, v)
	}
}

// step advances one state machine by one reading.
func (d *Detector) step(st *ruleState, series string, ts int64, v float64) {
	r := st.rule
	reading := v
	if r.Delta {
		if !st.havePrev {
			st.havePrev = true
			st.prev = v
			return
		}
		reading = v - st.prev
		st.prev = v
		if reading < 0 {
			reading = 0 // counter reset (process restart)
		}
	}

	trigger := reading >= r.Threshold

	onsetNeed := r.OnsetCount
	if onsetNeed <= 0 {
		onsetNeed = 1
	}
	clearNeed := r.ClearCount
	if clearNeed <= 0 {
		clearNeed = 3
	}

	if trigger {
		if st.hot == 0 {
			st.pendingTS = ts
		}
		st.hot++
		st.quiet = 0
		if st.open {
			st.ticksInEvt++
			if reading > st.peak {
				st.peak = reading
			}
			return
		}
		if st.hot >= onsetNeed {
			st.open = true
			st.onsetTS = st.pendingTS
			st.peak = reading
			st.ticksInEvt = st.hot
			d.total[r.Class]++
		}
		return
	}

	st.hot = 0
	if !st.open || r.Latch {
		return
	}
	if st.quiet == 0 {
		st.clearCand = ts
	}
	st.quiet++
	if st.quiet >= clearNeed {
		d.events = append(d.events, Event{
			Class: r.Class, Series: series,
			OnsetTS: st.onsetTS, ClearTS: st.clearCand,
			Peak: st.peak, Ticks: st.ticksInEvt,
		})
		st.open = false
		st.quiet = 0
		st.ticksInEvt = 0
	}
}

// Events returns all events — closed ones plus a snapshot of every still-
// open anomaly (ClearTS == 0) — sorted by (onset, class, series).
func (d *Detector) Events() []Event {
	d.mu.Lock()
	out := append([]Event(nil), d.events...)
	// Open anomalies surface too: a dead link never "clears".
	keys := make([]string, 0, len(d.states))
	for k := range d.states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := d.states[k]
		if st.open {
			out = append(out, Event{
				Class: st.rule.Class, Series: st.series,
				OnsetTS: st.onsetTS, Peak: st.peak, Ticks: st.ticksInEvt,
			})
		}
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.OnsetTS != b.OnsetTS {
			return a.OnsetTS < b.OnsetTS
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Series < b.Series
	})
	return out
}

// Totals returns per-class cumulative event counts (including open ones),
// for the anomaly_* metrics exposition.
func (d *Detector) Totals() map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]uint64, len(d.total))
	for k, v := range d.total {
		out[k] = v
	}
	return out
}

// Active returns the number of currently open anomalies.
func (d *Detector) Active() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, st := range d.states {
		if st.open {
			n++
		}
	}
	return n
}

// Analyze replays a frozen snapshot through a fresh detector and returns
// the sorted events. Points within a series are replayed oldest-first;
// series are replayed in name order — fully deterministic for a
// deterministic snapshot.
func Analyze(snap timeseries.Snapshot, rules []Rule) []Event {
	d := New(rules)
	for _, ss := range snap.Series {
		for _, p := range ss.Points {
			d.Observe(ss.Name, p.TS, p.V)
		}
	}
	return d.Events()
}
