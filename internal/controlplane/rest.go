package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Role is an API access level.
type Role int

// Access levels.
const (
	RoleNone Role = iota
	RoleReader
	RoleAdmin
)

// AuthConfig maps bearer tokens to roles.
type AuthConfig struct {
	AdminTokens  []string
	ReaderTokens []string
}

func (a AuthConfig) roleOf(token string) Role {
	for _, t := range a.AdminTokens {
		if token == t && t != "" {
			return RoleAdmin
		}
	}
	for _, t := range a.ReaderTokens {
		if token == t && t != "" {
			return RoleReader
		}
	}
	return RoleNone
}

// API is the REST frontend of the control plane. The various remote memory
// allocation/deallocation interactions occur via this API; an access
// control system ensures only users with enough privileges can act on the
// system status (Section IV-C).
type API struct {
	svc  *Service
	auth AuthConfig
	mux  *http.ServeMux
}

// NewAPI builds the REST frontend.
func NewAPI(svc *Service, auth AuthConfig) *API {
	a := &API{svc: svc, auth: auth, mux: http.NewServeMux()}
	a.mux.HandleFunc("/v1/attachments", a.handleAttachments)
	a.mux.HandleFunc("/v1/attachments/", a.handleAttachment)
	a.mux.HandleFunc("/v1/topology", a.handleTopology)
	a.mux.HandleFunc("/v1/metrics", a.handleMetrics)
	a.mux.HandleFunc("/v1/sagas", a.handleSagas)
	a.mux.HandleFunc("/v1/sagas/", a.handleSagaSub)
	a.mux.HandleFunc("/v1/latency", a.handleLatency)
	a.mux.HandleFunc("/v1/trace/snapshot", a.handleTraceSnapshot)
	a.mux.HandleFunc("/v1/events", a.handleEvents)
	a.mux.HandleFunc("/v1/timeseries", a.handleTimeseries)
	a.mux.HandleFunc("/v1/anomalies", a.handleAnomalies)
	a.mux.HandleFunc("/v1/healthz", a.handleHealthz)
	a.mux.HandleFunc("/v1/readyz", a.handleReadyz)
	return a
}

// handleSagaSub routes /v1/sagas/{id}/trace.
func (a *API) handleSagaSub(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/sagas/")
	if rest, found := strings.CutSuffix(id, "/trace"); found && rest != "" {
		a.handleSagaTrace(w, r, rest)
		return
	}
	writeErr(w, http.StatusNotFound, "unknown saga resource")
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mux.ServeHTTP(w, r)
}

func (a *API) authorize(w http.ResponseWriter, r *http.Request, need Role) bool {
	h := r.Header.Get("Authorization")
	token := strings.TrimPrefix(h, "Bearer ")
	role := a.auth.roleOf(token)
	if role >= need {
		return true
	}
	status := http.StatusForbidden
	if role == RoleNone {
		status = http.StatusUnauthorized
	}
	writeErr(w, status, "insufficient privileges")
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (a *API) handleAttachments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		if !a.authorize(w, r, RoleReader) {
			return
		}
		writeJSON(w, http.StatusOK, a.svc.Attachments())
	case http.MethodPost:
		if !a.authorize(w, r, RoleAdmin) {
			return
		}
		var req AttachRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		rec, err := a.svc.Attach(req)
		if err != nil {
			writeErr(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, rec)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

func (a *API) handleAttachment(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/attachments/")
	if id == "" {
		writeErr(w, http.StatusNotFound, "missing attachment id")
		return
	}
	if rest, found := strings.CutSuffix(id, "/state"); found {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		if !a.authorize(w, r, RoleReader) {
			return
		}
		st, ok := a.svc.AttachmentState(rest)
		if !ok {
			writeErr(w, http.StatusNotFound, "no state for attachment")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": rest, "state": st})
		return
	}
	if rest, found := strings.CutSuffix(id, "/stats"); found {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		if !a.authorize(w, r, RoleReader) {
			return
		}
		ts, ok := a.svc.Traffic(rest)
		if !ok {
			writeErr(w, http.StatusNotFound, "no stats for attachment")
			return
		}
		writeJSON(w, http.StatusOK, ts)
		return
	}
	switch r.Method {
	case http.MethodGet:
		if !a.authorize(w, r, RoleReader) {
			return
		}
		rec, ok := a.svc.Attachment(id)
		if !ok {
			writeErr(w, http.StatusNotFound, "no such attachment")
			return
		}
		writeJSON(w, http.StatusOK, rec)
	case http.MethodDelete:
		if !a.authorize(w, r, RoleAdmin) {
			return
		}
		if err := a.svc.Detach(id); err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "detached"})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

// sagasView is the JSON shape of GET /v1/sagas: saga progress plus the
// fault-handling counters, so operators can watch retries, compensations,
// and parked sagas without scraping metrics.
type sagasView struct {
	Sagas    []SagaStatus `json:"sagas"`
	Parked   []string     `json:"parked,omitempty"`
	Counters SagaCounters `json:"counters"`
}

func (a *API) handleSagas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleReader) {
		return
	}
	writeJSON(w, http.StatusOK, sagasView{
		Sagas:    a.svc.Sagas(),
		Parked:   a.svc.ParkedSagas(),
		Counters: a.svc.Counters(),
	})
}

// topologyView is the JSON shape of GET /v1/topology.
type topologyView struct {
	Vertices []topologyVertex `json:"vertices"`
	Edges    []topologyEdge   `json:"edges"`
}

type topologyVertex struct {
	ID    int64          `json:"id"`
	Label string         `json:"label"`
	Props map[string]any `json:"props,omitempty"`
}

type topologyEdge struct {
	A int64 `json:"a"`
	B int64 `json:"b"`
}

func (a *API) handleTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleReader) {
		return
	}
	g := a.svc.Model().Graph()
	var view topologyView
	for _, label := range []string{LabelHost, LabelComputeEP, LabelMemoryEP, LabelTransceiver, LabelSwitchPort} {
		for _, id := range g.VerticesByLabel(label) {
			v, _ := g.Vertex(id)
			view.Vertices = append(view.Vertices, topologyVertex{
				ID: int64(v.ID), Label: v.Label, Props: v.Props,
			})
			for _, n := range g.Neighbors(id) {
				if n > id {
					view.Edges = append(view.Edges, topologyEdge{A: int64(id), B: int64(n)})
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, view)
}
