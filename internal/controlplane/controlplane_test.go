package controlplane

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/core"
)

const testToken = "cp-secret"

// testService wires a 3-node simulated cluster behind a control plane with
// a fully cabled point-to-point fabric (2 channels between each pair).
func testService(t *testing.T) (*Service, *core.Cluster) {
	return testServiceWith(t, nil)
}

func testServiceWith(t *testing.T, mutate func(*core.HostConfig)) (*Service, *core.Cluster) {
	t.Helper()
	c := core.NewCluster()
	names := []string{"node0", "node1", "node2"}
	for _, n := range names {
		cfg := core.DefaultHostConfig(n)
		cfg.SectionSize = 1 << 20
		cfg.RMMUSections = 64
		if mutate != nil {
			mutate(&cfg)
		}
		if _, err := c.AddHost(cfg); err != nil {
			t.Fatal(err)
		}
	}
	m := NewModel()
	for _, n := range names {
		if err := m.AddHost(n, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CableFullMesh(); err != nil {
		t.Fatal(err)
	}
	svc := NewService(m, ClusterExecutor{Cluster: c}, testToken)
	for _, n := range names {
		svc.RegisterAgent(agent.New(n, testToken))
	}
	return svc, c
}

func TestAttachDetachLifecycle(t *testing.T) {
	svc, cluster := testService(t)
	rec, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 4 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.NUMANode == 0 {
		t.Fatal("attachment did not produce a new NUMA node")
	}
	if len(rec.PathLen) != 1 {
		t.Fatalf("paths = %v", rec.PathLen)
	}
	if _, ok := cluster.Attachment(rec.ID); !ok {
		t.Fatal("cluster has no matching attachment")
	}
	// One compute transceiver reserved.
	if free := svc.Model().FreeTransceivers("node0", LabelComputeEP); free != 1 {
		t.Fatalf("free compute transceivers = %d, want 1", free)
	}
	if err := svc.Detach(rec.ID); err != nil {
		t.Fatal(err)
	}
	if free := svc.Model().FreeTransceivers("node0", LabelComputeEP); free != 2 {
		t.Fatalf("free compute transceivers after detach = %d, want 2", free)
	}
	if len(cluster.Attachments()) != 0 {
		t.Fatal("cluster attachment not removed")
	}
}

func TestPlanExhaustsTransceivers(t *testing.T) {
	svc, _ := testService(t)
	// Two channels consume both of node0's compute transceivers.
	if _, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node2", Bytes: 1 << 20, Channels: 1,
	}); err == nil {
		t.Fatal("attach with exhausted transceivers succeeded")
	}
}

func TestFailedExecutorRollsBackReservations(t *testing.T) {
	svc, _ := testService(t)
	// Donor cannot satisfy this much memory: executor fails, reservations
	// must be released.
	if _, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 50, Channels: 1,
	}); err == nil {
		t.Fatal("impossible attach succeeded")
	}
	if free := svc.Model().FreeTransceivers("node0", LabelComputeEP); free != 2 {
		t.Fatalf("reservations leaked after failed attach: free = %d", free)
	}
}

func TestAgentRejectsUntrustedPush(t *testing.T) {
	a := agent.New("node0", "good-token")
	err := a.Apply("evil-token", agent.Command{Kind: agent.CmdStealMemory, Bytes: 1 << 20})
	if err == nil {
		t.Fatal("untrusted configuration accepted")
	}
	if a.Rejected() != 1 || len(a.Applied()) != 0 {
		t.Fatalf("rejected=%d applied=%d", a.Rejected(), len(a.Applied()))
	}
	if err := a.Apply("good-token", agent.Command{Kind: agent.CmdStealMemory, Bytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if len(a.Applied()) != 1 {
		t.Fatal("trusted command not applied")
	}
}

func TestSwitchTopologyPathing(t *testing.T) {
	m := NewModel()
	if err := m.AddHost("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddHost("b", 1); err != nil {
		t.Fatal(err)
	}
	ports, err := m.AddSwitch("sw0", 4)
	if err != nil {
		t.Fatal(err)
	}
	// a.compute[0] -- sw port0; sw port1 -- b.memory[0]
	if err := m.Cable(m.Transceivers("a", LabelComputeEP)[0], ports[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Cable(ports[1], m.Transceivers("b", LabelMemoryEP)[0]); err != nil {
		t.Fatal(err)
	}
	paths, err := m.PlanChannels("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths[0].Vertices) != 4 {
		t.Fatalf("switched path length = %d, want 4 (txcvr, 2 ports, txcvr)", len(paths[0].Vertices))
	}
	// The switch ports are now reserved; a second channel must fail.
	if _, err := m.PlanChannels("a", "b", 1); err == nil {
		t.Fatal("second channel through exhausted fabric succeeded")
	}
	m.ReleasePaths(paths)
	if _, err := m.PlanChannels("a", "b", 1); err != nil {
		t.Fatalf("re-plan after release: %v", err)
	}
}

// REST tests.

func restAPI(t *testing.T) (*API, *Service) {
	svc, _ := testService(t)
	api := NewAPI(svc, AuthConfig{
		AdminTokens:  []string{"admin-tok"},
		ReaderTokens: []string{"reader-tok"},
	})
	return api, svc
}

func doReq(t *testing.T, api *API, method, path, token string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	api.ServeHTTP(w, req)
	return w
}

func TestRESTAttachFlow(t *testing.T) {
	api, _ := restAPI(t)
	w := doReq(t, api, http.MethodPost, "/v1/attachments", "admin-tok", AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 2 << 20, Channels: 2,
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("POST status = %d body=%s", w.Code, w.Body.String())
	}
	var rec AttachmentRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Channels != 2 || rec.ID == "" {
		t.Fatalf("record = %+v", rec)
	}

	w = doReq(t, api, http.MethodGet, "/v1/attachments", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET list status = %d", w.Code)
	}
	var list []AttachmentRecord
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != rec.ID {
		t.Fatalf("list = %+v", list)
	}

	w = doReq(t, api, http.MethodGet, "/v1/attachments/"+rec.ID, "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET one status = %d", w.Code)
	}

	w = doReq(t, api, http.MethodDelete, "/v1/attachments/"+rec.ID, "admin-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE status = %d body=%s", w.Code, w.Body.String())
	}
	w = doReq(t, api, http.MethodGet, "/v1/attachments/"+rec.ID, "reader-tok", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("GET deleted status = %d", w.Code)
	}
}

func TestRESTAccessControl(t *testing.T) {
	api, _ := restAPI(t)
	// No token: 401.
	if w := doReq(t, api, http.MethodGet, "/v1/attachments", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("no token status = %d", w.Code)
	}
	// Reader cannot write: 403.
	if w := doReq(t, api, http.MethodPost, "/v1/attachments", "reader-tok", AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20,
	}); w.Code != http.StatusForbidden {
		t.Fatalf("reader write status = %d", w.Code)
	}
	// Unknown token: 401.
	if w := doReq(t, api, http.MethodGet, "/v1/attachments", "bogus", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("bogus token status = %d", w.Code)
	}
	// Reader can read topology.
	if w := doReq(t, api, http.MethodGet, "/v1/topology", "reader-tok", nil); w.Code != http.StatusOK {
		t.Fatalf("topology status = %d", w.Code)
	}
}

func TestRESTTopologyShape(t *testing.T) {
	api, _ := restAPI(t)
	w := doReq(t, api, http.MethodGet, "/v1/topology", "admin-tok", nil)
	var view topologyView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	// 3 hosts x (1 host + 2 endpoints + 4 transceivers) = 21 vertices.
	if len(view.Vertices) != 21 {
		t.Fatalf("vertices = %d, want 21", len(view.Vertices))
	}
	if len(view.Edges) == 0 {
		t.Fatal("no edges in topology")
	}
}

func TestRESTBadBody(t *testing.T) {
	api, _ := restAPI(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/attachments", bytes.NewReader([]byte("{not json")))
	req.Header.Set("Authorization", "Bearer admin-tok")
	w := httptest.NewRecorder()
	api.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad body status = %d", w.Code)
	}
}

func TestRESTAttachmentStats(t *testing.T) {
	api, _ := restAPI(t)
	w := doReq(t, api, http.MethodPost, "/v1/attachments", "admin-tok", AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("POST status = %d", w.Code)
	}
	var rec AttachmentRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	w = doReq(t, api, http.MethodGet, "/v1/attachments/"+rec.ID+"/stats", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats status = %d body=%s", w.Code, w.Body.String())
	}
	var ts map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &ts); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tx_transactions", "backend_bytes", "hbm_hits"} {
		if _, ok := ts[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, ts)
		}
	}
	// Unknown attachment -> 404; no token -> 401.
	if w := doReq(t, api, http.MethodGet, "/v1/attachments/nope/stats", "reader-tok", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown stats status = %d", w.Code)
	}
	if w := doReq(t, api, http.MethodGet, "/v1/attachments/"+rec.ID+"/stats", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("unauthorized stats status = %d", w.Code)
	}
}

func TestRESTAttachmentState(t *testing.T) {
	api, svc := restAPI(t)
	w := doReq(t, api, http.MethodPost, "/v1/attachments", "admin-tok", AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("POST status = %d", w.Code)
	}
	var rec AttachmentRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	w = doReq(t, api, http.MethodGet, "/v1/attachments/"+rec.ID+"/state", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("state status = %d body=%s", w.Code, w.Body.String())
	}
	var st map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st["state"] != "active" {
		t.Fatalf("state = %q, want active", st["state"])
	}
	if got, ok := svc.AttachmentState(rec.ID); !ok || got != "active" {
		t.Fatalf("service state = %q ok=%v", got, ok)
	}
	if w := doReq(t, api, http.MethodGet, "/v1/attachments/nope/state", "reader-tok", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown state status = %d", w.Code)
	}
	if w := doReq(t, api, http.MethodGet, "/v1/attachments/"+rec.ID+"/state", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("unauthorized state status = %d", w.Code)
	}
}
