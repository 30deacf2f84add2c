package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("llc.tx-frames", func() float64 { return 42 })
	r.GaugeFunc("cluster.attachments", func() float64 { return 3 })
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	r.HistogramFunc("capi.latency.rtt_ns", h.Summary)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE llc_tx_frames counter\n",
		"llc_tx_frames 42\n",
		"# TYPE cluster_attachments gauge\n",
		"cluster_attachments 3\n",
		"# TYPE capi_latency_rtt_ns summary\n",
		"capi_latency_rtt_ns{quantile=\"0.5\"}",
		"capi_latency_rtt_ns{quantile=\"0.999\"}",
		"capi_latency_rtt_ns_count 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// _sum is reconstructed from mean*count: 1+2+...+100 = 5050.
	if !strings.Contains(out, "capi_latency_rtt_ns_sum 5050\n") {
		t.Fatalf("summary _sum not reconstructed:\n%s", out)
	}
}

func TestWritePrometheusByteStable(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.middle"} {
		r.CounterFunc(n, func() float64 { return 1 })
	}
	r.GaugeFunc("g", func() float64 { return 1.5 })

	var a, b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("idle registry scrapes differ:\n%s\n---\n%s", a.String(), b.String())
	}
	// Series are sorted by sanitized name.
	first := strings.Index(a.String(), "a_first")
	last := strings.Index(a.String(), "z_last")
	if first < 0 || last < 0 || first > last {
		t.Fatalf("series not sorted:\n%s", a.String())
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"llc.tx-frames":    "llc_tx_frames",
		"9lives":           "_lives", // digit invalid at position 0
		"ok_name:subsys":   "ok_name:subsys",
		"sp ace/and+stuff": "sp_ace_and_stuff",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromFloat(t *testing.T) {
	cases := map[float64]string{
		42:     "42",
		1.5:    "1.5",
		-3:     "-3",
		212.5:  "212.5",
		1e18:   "1e+18", // too large for integer rendering
		0.0001: "0.0001",
	}
	for in, want := range cases {
		if got := promFloat(in); got != want {
			t.Errorf("promFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
