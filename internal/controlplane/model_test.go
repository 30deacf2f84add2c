package controlplane

import (
	"reflect"
	"testing"
)

// TestCableFullMesh pins the full-mesh cabling on a 3-host model with two
// transceivers per endpoint: every ordered host pair gets one cable per
// transceiver index, and compute transceiver i links exactly to memory
// transceiver i of each other host.
func TestCableFullMesh(t *testing.T) {
	m := NewModel()
	hosts := []string{"a", "b", "c"}
	for _, h := range hosts {
		if err := m.AddHost(h, 2); err != nil {
			t.Fatal(err)
		}
	}
	_, before := m.Graph().Counts()
	if err := m.CableFullMesh(); err != nil {
		t.Fatal(err)
	}
	_, after := m.Graph().Counts()
	if cables := after - before; cables != 3*2*2 {
		t.Fatalf("full mesh laid %d cables, want 12", cables)
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			ct := m.Transceivers(a, LabelComputeEP)
			mt := m.Transceivers(b, LabelMemoryEP)
			for i := range ct {
				for j := range mt {
					_, linked := m.Graph().EdgeBetween(ct[i], mt[j])
					if linked != (i == j) {
						t.Fatalf("%s compute[%d] <-> %s memory[%d]: linked=%v", a, i, b, j, linked)
					}
				}
			}
		}
	}
}

// TestSagaCountersAddSumsEveryField sets every field of SagaCounters to a
// distinct value and checks that Add sums each one, so a counter added to
// the struct later cannot be silently dropped when harnesses bank counters
// across crash-restarts.
func TestSagaCountersAddSumsEveryField(t *testing.T) {
	var o SagaCounters
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("field %s is %s; extend this test and SagaCounters.Add", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	var sum SagaCounters
	sum.Add(o)
	sum.Add(o)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if want := 2 * int64(i+1); got.Field(i).Int() != want {
			t.Errorf("Add dropped %s: got %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
}
