package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestCatalogueMatchesBenchmarkFile keeps BENCHMARK.json and the program's
// metric catalogue and workload table in step.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, c := range []struct {
		kind  string
		file  []benchmarkMetric
		specs []metricSpec
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.kind, len(c.file), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if m := c.file[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program %s %s %s", c.kind, i, m, s.name, s.unit, s.better)
			}
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced: each
// must pass its correctness checks and print every metric with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: defaultSeed, seconds: 0.01, trace: traced,
				sz: smokeSizes, spansDir: t.TempDir()}
			var report bytes.Buffer
			res, err := run(&report, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w, traced, res.Correct, res.Attempted, res.Failed, report.String())
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, s.name, m, s.unit)
				}
			}
			if !traced {
				for _, s := range endToEnd {
					if res.Metrics[s.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, s.name, res.Metrics[s.name].Value)
					}
				}
			}
			if !strings.Contains(report.String(), "sim_digest") {
				t.Errorf("%s traced=%v: report has no sim_digest line", w, traced)
			}
		}
	}
}

func TestLayerOfFunc(t *testing.T) {
	for fn, want := range map[string]string{
		"thymesisflow/internal/sim.(*Kernel).Run":                 "sim",
		"thymesisflow/internal/sim/shard.(*Group).RunUntil.func1": "sim.shard",
		"thymesisflow/internal/workloads/kvcache.New":             "workloads.kvcache",
		"thymesisflow/perfbench.(*rackInst).run":                  "perfbench",
	} {
		if got, ok := layerOfFunc(fn); !ok || got != want {
			t.Errorf("layerOfFunc(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := layerOfFunc("runtime.mallocgc"); ok {
		t.Error("runtime.mallocgc classified as a repo layer")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if label, v, ok := tail(xs); !ok || label != "p99" || v != 990 {
		t.Errorf("tail(1..1000) = %s %v %v, want p99 990", label, v, ok)
	}
	if _, _, ok := tail(xs[:19]); ok {
		t.Error("tail of 19 samples should have no percentile with ten beyond it")
	}
}
