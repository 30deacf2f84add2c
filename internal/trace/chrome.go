package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export. The format is the JSON object form of the
// Trace Event Format understood by chrome://tracing and Perfetto
// (ui.perfetto.dev): a "traceEvents" array of phase-tagged records with
// microsecond timestamps. One process (pid 1) represents the simulation;
// each layer becomes its own named thread row so the timeline shows a
// transaction's stages stepping across the capi, llc and phy lanes under
// its capi round-trip span. Every event of a transaction carries its id as
// args.txn, which ParseChromeTrace reads back.
//
// Virtual picosecond timestamps are exported as fractional microseconds,
// preserving sub-nanosecond placement (both viewers accept float ts).

// chromeEvent is one record of the trace-event array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`    // instant scope: "t" = thread
	Args  map[string]any `json:"args,omitempty"` // counter values, txn ids, metadata
}

const chromePID = 1

func psToUS(ps int64) float64 { return float64(ps) / 1e6 }

// WriteChromeTrace writes the ring's retained events as Chrome trace-event
// JSON. The output is a complete JSON object; load it in chrome://tracing
// or https://ui.perfetto.dev.
func (r *Ring) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, r.Snapshot())
}

// WriteChromeTrace writes events (oldest-first, as returned by
// Ring.Snapshot) as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)

	// Assign one thread row per layer, in first-appearance order.
	tids := make(map[string]int)
	var layers []string
	for _, e := range events {
		if _, ok := tids[e.Layer]; !ok {
			tids[e.Layer] = len(layers) + 1
			layers = append(layers, e.Layer)
		}
	}

	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		// Encoder appends a newline after each value, giving one event per
		// line — handy for grepping a trace without a viewer.
		return enc.Encode(ce)
	}

	for _, layer := range layers {
		if err := emit(chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: tids[layer],
			Args: map[string]any{"name": layer},
		}); err != nil {
			return err
		}
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name, Cat: e.Layer, PID: chromePID, TID: tids[e.Layer],
			TS: psToUS(e.TS),
		}
		switch e.Ph {
		case PhaseSpan:
			ce.Ph = "X"
			if e.Dur > 0 {
				ce.Dur = psToUS(e.Dur)
			}
			if e.Txn != 0 {
				ce.Args = map[string]any{"txn": e.Txn}
			}
		case PhaseInstant:
			ce.Ph = "i"
			ce.Scope = "t"
		case PhaseCounter:
			ce.Ph = "C"
			ce.Args = map[string]any{"value": e.Value}
		default:
			return fmt.Errorf("trace: unknown phase %q in event %+v", e.Ph, e)
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
