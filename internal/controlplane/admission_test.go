package controlplane

import (
	"errors"
	"testing"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
)

// gateExecutor blocks inside the executor step until released, keeping one
// saga in flight for as long as the test needs.
type gateExecutor struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gateExecutor) Attach(compute, donor string, bytes int64, channels int) (string, mem.NodeID, error) {
	g.entered <- struct{}{}
	<-g.release
	return "att-gated", 1, nil
}

func (g *gateExecutor) Detach(id string) error { return nil }

// The admission tests neither recover nor reconcile, so the reports are
// never read.
func (g *gateExecutor) HasAttachment(string) bool                { return true }
func (g *gateExecutor) AttachmentIDs() []string                  { return nil }
func (g *gateExecutor) Traffic(string) (core.TrafficStats, bool) { return core.TrafficStats{}, false }
func (g *gateExecutor) AttachmentState(string) (string, bool)    { return "", false }

// TestSagaAdmissionLimit verifies SetMaxInflightSagas: while one saga is
// executing, further requests are rejected with ErrOverloaded *before*
// queueing on the saga mutex, the rejection counts as SagasRejected, and
// the limit frees up as soon as the in-flight saga returns.
func TestSagaAdmissionLimit(t *testing.T) {
	m := NewModel()
	for _, n := range []string{"node0", "node1"} {
		if err := m.AddHost(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	ca := m.Transceivers("node0", LabelComputeEP)
	mb := m.Transceivers("node1", LabelMemoryEP)
	if err := m.Cable(ca[0], mb[0]); err != nil {
		t.Fatal(err)
	}
	gate := &gateExecutor{entered: make(chan struct{}), release: make(chan struct{})}
	svc := NewService(m, gate, testToken)
	for _, n := range []string{"node0", "node1"} {
		svc.RegisterAgent(agent.New(n, testToken))
	}
	svc.SetMaxInflightSagas(1)

	req := AttachRequest{ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1}
	done := make(chan error, 1)
	go func() {
		_, err := svc.Attach(req)
		done <- err
	}()
	<-gate.entered // first saga is mid-executor-step, holding the saga mutex

	if _, err := svc.Attach(req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second attach got %v, want ErrOverloaded", err)
	}
	if err := svc.Detach("whatever"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("detach during overload got %v, want ErrOverloaded", err)
	}
	if n := svc.InflightSagas(); n != 1 {
		t.Fatalf("inflight = %d, want 1", n)
	}

	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("gated attach failed: %v", err)
	}

	// The slot freed up: a detach of the committed attachment is admitted
	// (executor detach is a no-op stub; the saga commits normally).
	if err := svc.Detach("att-gated"); err != nil {
		t.Fatalf("detach after release: %v", err)
	}
	if c := svc.Counters(); c.SagasRejected != 2 {
		t.Fatalf("SagasRejected = %d, want 2", c.SagasRejected)
	}
	if n := svc.InflightSagas(); n != 0 {
		t.Fatalf("inflight after drain = %d, want 0", n)
	}

	// n <= 0 removes the bound.
	svc.SetMaxInflightSagas(0)
	if _, err := svc.Attach(AttachRequest{ComputeHost: "node0", DonorHost: "node1", Bytes: -1}); errors.Is(err, ErrOverloaded) {
		t.Fatal("unlimited admission still rejecting")
	}
}
