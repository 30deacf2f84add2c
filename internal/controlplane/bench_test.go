package controlplane

import (
	"fmt"
	"testing"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
)

// benchExec is an executor stub that succeeds instantly, so the benchmark
// measures the saga engine (journal, steps, transport) rather than the
// simulated datapath.
type benchExec struct{ n int }

func (b *benchExec) Attach(_, _ string, _ int64, _ int) (string, mem.NodeID, error) {
	b.n++
	return fmt.Sprintf("att-%d", b.n), 0, nil
}

func (b *benchExec) Detach(string) error { return nil }

// The benchmarks neither recover nor reconcile, so the reports are never
// read.
func (b *benchExec) HasAttachment(string) bool                { return true }
func (b *benchExec) AttachmentIDs() []string                  { return nil }
func (b *benchExec) Traffic(string) (core.TrafficStats, bool) { return core.TrafficStats{}, false }
func (b *benchExec) AttachmentState(string) (string, bool)    { return "", false }

func newBenchService(tb testing.TB) *Service {
	tb.Helper()
	m := NewModel()
	for _, h := range []string{"c0", "d0"} {
		if err := m.AddHost(h, 2); err != nil {
			tb.Fatal(err)
		}
	}
	ct := m.Transceivers("c0", LabelComputeEP)
	mt := m.Transceivers("d0", LabelMemoryEP)
	for i := 0; i < len(ct) && i < len(mt); i++ {
		if err := m.Cable(ct[i], mt[i]); err != nil {
			tb.Fatal(err)
		}
	}
	svc := NewService(m, &benchExec{}, "bench-token")
	svc.RegisterAgent(agent.New("c0", "bench-token"))
	svc.RegisterAgent(agent.New("d0", "bench-token"))
	return svc
}

// runSagaPair runs one attach+detach saga pair — the control-plane hot path
// the event-log/tracing guards must not burden when tracing is disabled.
func runSagaPair(b *testing.B, svc *Service) {
	rec, err := svc.Attach(AttachRequest{ComputeHost: "c0", DonorHost: "d0", Bytes: 1 << 20, Channels: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Detach(rec.ID); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSagaAttachDetach measures the saga engine with tracing disabled
// (the production default). The pair costs about 54 allocs/op; the
// disabled-tracing path must not regress when instrumentation changes.
func BenchmarkSagaAttachDetach(b *testing.B) {
	svc := newBenchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSagaPair(b, svc)
	}
}

// BenchmarkSagaAttachDetachTraced measures the same path with the event log
// enabled, quantifying the cost of span tracing when an operator turns it on.
func BenchmarkSagaAttachDetachTraced(b *testing.B) {
	svc := newBenchService(b)
	svc.EnableSagaTracing(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSagaPair(b, svc)
	}
}
