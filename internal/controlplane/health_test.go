package controlplane

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"thymesisflow/internal/agent"
)

// TestHealthzUnauthenticated: the liveness probe answers without credentials
// (load balancers and init systems probe it token-less) and rejects non-GET.
func TestHealthzUnauthenticated(t *testing.T) {
	api, _ := restAPI(t)
	w := doReq(t, api, http.MethodGet, "/v1/healthz", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status = %d body=%s", w.Code, w.Body.String())
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body = %v", body)
	}
	if w := doReq(t, api, http.MethodPost, "/v1/healthz", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("healthz POST status = %d", w.Code)
	}
}

func readyz(t *testing.T, api *API, token string) (int, Readiness) {
	t.Helper()
	w := doReq(t, api, http.MethodGet, "/v1/readyz", token, nil)
	var rd Readiness
	if w.Code == http.StatusOK || w.Code == http.StatusServiceUnavailable {
		if err := json.Unmarshal(w.Body.Bytes(), &rd); err != nil {
			t.Fatal(err)
		}
	}
	return w.Code, rd
}

func TestReadyzHealthyService(t *testing.T) {
	api, _ := restAPI(t)
	// Readiness reveals dependency state, so it is reader-gated.
	if code, _ := readyz(t, api, ""); code != http.StatusUnauthorized {
		t.Fatalf("readyz without token status = %d", code)
	}
	code, rd := readyz(t, api, "reader-tok")
	if code != http.StatusOK || !rd.Ready {
		t.Fatalf("readyz = %d %+v", code, rd)
	}
	if rd.Journal != "ok" || rd.Reconciler != "disabled" || rd.AgentsTotal != 3 {
		t.Fatalf("readiness detail = %+v", rd)
	}
}

func TestReadyzJournalFailure(t *testing.T) {
	api, svc := restAPI(t)
	cj := NewCrashableJournal(NewMemJournal())
	svc.SetJournal(cj)
	cj.FailAfter(0)
	if _, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	}); !IsCrash(err) {
		t.Fatalf("err = %v, want crash", err)
	}
	code, rd := readyz(t, api, "reader-tok")
	if code != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("readyz after journal failure = %d %+v", code, rd)
	}
	if rd.Journal == "ok" {
		t.Fatalf("journal check = %q, want the append error", rd.Journal)
	}
	// Journal heals: the next successful append clears the sticky error.
	cj.FailAfter(-1)
	if _, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if code, rd := readyz(t, api, "reader-tok"); code != http.StatusOK || rd.Journal != "ok" {
		t.Fatalf("readyz after heal = %d %+v", code, rd)
	}
}

func TestReadyzReconcilerLifecycle(t *testing.T) {
	api, svc := restAPI(t)
	stop := svc.StartReconciler(time.Hour)
	if code, rd := readyz(t, api, "reader-tok"); code != http.StatusOK || rd.Reconciler != "running" {
		t.Fatalf("readyz with reconciler = %d %+v", code, rd)
	}
	stop()
	code, rd := readyz(t, api, "reader-tok")
	if code != http.StatusServiceUnavailable || rd.Reconciler != "stopped" {
		t.Fatalf("readyz after stop = %d %+v", code, rd)
	}
}

// deadQueryTransport fails every status query and reachability check,
// simulating unreachable agent daemons while commands still flow.
type deadQueryTransport struct{ Transport }

var errDaemonDown = errors.New("agent daemon unreachable")

func (d deadQueryTransport) Query(string) (agent.Status, error) {
	return agent.Status{}, errDaemonDown
}

func (d deadQueryTransport) Reach(string) error { return errDaemonDown }

func TestReadyzUnreachableAgents(t *testing.T) {
	svc, _ := testService(t)
	svc.SetTransport(deadQueryTransport{svc.transport})
	api := NewAPI(svc, AuthConfig{ReaderTokens: []string{"reader-tok"}})
	code, rd := readyz(t, api, "reader-tok")
	if code != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("readyz with dead agents = %d %+v", code, rd)
	}
	if len(rd.AgentsUnreachable) != 3 {
		t.Fatalf("unreachable = %v, want all 3", rd.AgentsUnreachable)
	}
}
