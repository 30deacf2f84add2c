// Package controlplane implements the software-defined control plane of
// ThymesisFlow (Section IV-C): system state kept as an undirected graph
// whose vertices are compute/memory endpoints, transceivers and switch
// ports, and whose edges are physical links; best-path search over that
// graph with resource reservation; a REST API with token-based access
// control; and configuration push to the per-host agents.
package controlplane

import (
	"fmt"
	"slices"
	"sort"

	"thymesisflow/internal/graphdb"
)

// Vertex labels in the state graph.
const (
	LabelHost        = "host"
	LabelComputeEP   = "compute-endpoint"
	LabelMemoryEP    = "memory-endpoint"
	LabelTransceiver = "transceiver"
	LabelSwitchPort  = "switch-port"
)

// Edge labels.
const (
	EdgeHas  = "has"  // host -> endpoint, endpoint -> transceiver
	EdgeLink = "link" // transceiver <-> transceiver or switch port
)

// Model is the control plane's view of the physical system.
type Model struct {
	g     *graphdb.Graph
	hosts map[string]graphdb.ID
	xcvrs map[endpointKey][]graphdb.ID // transceivers per endpoint, in ID order
}

// endpointKey names one endpoint: a host and its compute or memory role.
type endpointKey struct{ host, role string }

// NewModel returns an empty topology model.
func NewModel() *Model {
	return &Model{g: graphdb.New(), hosts: make(map[string]graphdb.ID),
		xcvrs: make(map[endpointKey][]graphdb.ID)}
}

// Graph exposes the underlying store (read-mostly use by the REST layer).
func (m *Model) Graph() *graphdb.Graph { return m.g }

// AddHost registers a host with one compute endpoint, one memory endpoint,
// and n transceivers per endpoint. It returns an error on duplicates.
func (m *Model) AddHost(name string, transceiversPerEndpoint int) error {
	if _, dup := m.hosts[name]; dup {
		return fmt.Errorf("controlplane: host %q already registered", name)
	}
	tx := m.g.Begin()
	h := tx.AddVertex(LabelHost, map[string]any{"name": name})
	xcvrs := make(map[endpointKey][]graphdb.ID, 2)
	for _, role := range []string{LabelComputeEP, LabelMemoryEP} {
		ep := tx.AddVertex(role, map[string]any{"host": name})
		if _, err := tx.AddEdge(EdgeHas, h, ep, nil); err != nil {
			tx.Rollback()
			return err
		}
		key := endpointKey{name, role}
		for i := 0; i < transceiversPerEndpoint; i++ {
			t := tx.AddVertex(LabelTransceiver, map[string]any{
				"host": name, "role": role, "index": i, "reserved": false,
			})
			if _, err := tx.AddEdge(EdgeHas, ep, t, nil); err != nil {
				tx.Rollback()
				return err
			}
			xcvrs[key] = append(xcvrs[key], t)
		}
	}
	tx.Commit()
	m.hosts[name] = h
	for key, ids := range xcvrs {
		m.xcvrs[key] = ids
	}
	return nil
}

// AddSwitch registers a switch with the given number of ports and returns
// its port vertex IDs.
func (m *Model) AddSwitch(name string, ports int) ([]graphdb.ID, error) {
	if _, dup := m.hosts[name]; dup {
		return nil, fmt.Errorf("controlplane: name %q already registered", name)
	}
	tx := m.g.Begin()
	out := make([]graphdb.ID, ports)
	for i := range out {
		out[i] = tx.AddVertex(LabelSwitchPort, map[string]any{
			"switch": name, "index": i, "reserved": false,
		})
	}
	// Ports of one switch are mutually connected through the crossbar.
	for i := 0; i < ports; i++ {
		for j := i + 1; j < ports; j++ {
			if _, err := tx.AddEdge(EdgeLink, out[i], out[j],
				map[string]any{"fabric": name}); err != nil {
				tx.Rollback()
				return nil, err
			}
		}
	}
	tx.Commit()
	m.hosts[name] = graphdb.ID(-1) // reserve the name
	return out, nil
}

// Cable links two transceiver/switch-port vertices with a physical cable.
func (m *Model) Cable(a, b graphdb.ID) error {
	_, err := m.g.AddEdge(EdgeLink, a, b, map[string]any{"cable": true})
	return err
}

// CableFullMesh cables a point-to-point rack: compute transceiver i of
// every host to memory transceiver i of every other host, in host
// registration order.
func (m *Model) CableFullMesh() error {
	var hosts []string
	for _, id := range m.g.VerticesByLabel(LabelHost) {
		v, _ := m.g.Vertex(id)
		hosts = append(hosts, v.Props["name"].(string))
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			ct := m.Transceivers(a, LabelComputeEP)
			mt := m.Transceivers(b, LabelMemoryEP)
			for i := 0; i < len(ct) && i < len(mt); i++ {
				if err := m.Cable(ct[i], mt[i]); err != nil {
					return fmt.Errorf("controlplane: cable %s-%s: %w", a, b, err)
				}
			}
		}
	}
	return nil
}

// Transceivers returns the transceiver vertex IDs of a host endpoint role,
// in ID (and so index) order.
func (m *Model) Transceivers(host, role string) []graphdb.ID {
	return slices.Clone(m.xcvrs[endpointKey{host, role}])
}

// Path is one reserved channel through the fabric.
type Path struct {
	Vertices []graphdb.ID
}

// PlanChannels finds and reserves `channels` disjoint paths from the
// compute host's free transceivers to the donor host's free memory-side
// transceivers, traversing only unreserved elements. On success all path
// vertices are atomically marked reserved; on failure nothing is reserved.
func (m *Model) PlanChannels(computeHost, donorHost string, channels int) ([]Path, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("controlplane: %d channels requested", channels)
	}
	// tentative holds the vertices of the channels planned so far in this
	// call; it stays short, so a linear scan beats a map.
	var tentative []graphdb.ID
	paths := make([]Path, 0, channels)
	for c := 0; c < channels; c++ {
		path, err := m.findPath(computeHost, donorHost, tentative)
		if err != nil {
			return nil, fmt.Errorf("controlplane: channel %d of %d: %w", c+1, channels, err)
		}
		tentative = append(tentative, path.Vertices...)
		paths = append(paths, path)
	}
	// Commit all reservations atomically.
	tx := m.g.Begin()
	for _, p := range paths {
		for _, id := range p.Vertices {
			if err := tx.SetVertexProp(id, "reserved", true); err != nil {
				tx.Rollback()
				return nil, err
			}
		}
	}
	tx.Commit()
	return paths, nil
}

// findPath locates one unreserved transceiver-to-transceiver path: one
// search from each free compute transceiver in index order, to the first
// free donor memory transceiver, in index order, that it reaches.
func (m *Model) findPath(computeHost, donorHost string, tentative []graphdb.ID) (Path, error) {
	free := func(id graphdb.ID) bool {
		r, _ := m.g.VertexProp(id, "reserved")
		return r != true && !slices.Contains(tentative, id)
	}
	dsts := m.xcvrs[endpointKey{donorHost, LabelMemoryEP}]
	targets := make([]graphdb.ID, 0, len(dsts))
	for _, dst := range dsts {
		if free(dst) {
			targets = append(targets, dst)
		}
	}
	// Intermediate elements must be free too. The filter reads the stored
	// vertex under the graph's read lock, so it checks the reservation flag
	// itself instead of calling free. It judges only the vertex a link
	// enters: each search starts from a free source and expands only from
	// vertices it entered, so every vertex of a path has been judged.
	linkFree := func(e *graphdb.Edge, to *graphdb.Vertex) bool {
		return e.Label == EdgeLink && to.Props["reserved"] != true && !slices.Contains(tentative, to.ID)
	}
	if len(targets) > 0 {
		for _, src := range m.xcvrs[endpointKey{computeHost, LabelComputeEP}] {
			if !free(src) {
				continue
			}
			if path, ok := m.g.ShortestPath(src, targets, linkFree); ok {
				return Path{Vertices: path}, nil
			}
		}
	}
	return Path{}, fmt.Errorf("no available path %s -> %s", computeHost, donorHost)
}

// ReleasePaths frees the reservations of previously planned paths.
func (m *Model) ReleasePaths(paths []Path) {
	tx := m.g.Begin()
	for _, p := range paths {
		for _, id := range p.Vertices {
			tx.SetVertexProp(id, "reserved", false) //nolint:errcheck
		}
	}
	tx.Commit()
}

// ReservePaths re-asserts the reservations of paths (used by crash
// recovery when rebuilding attachment records from the journal).
func (m *Model) ReservePaths(paths []Path) {
	tx := m.g.Begin()
	for _, p := range paths {
		for _, id := range p.Vertices {
			tx.SetVertexProp(id, "reserved", true) //nolint:errcheck
		}
	}
	tx.Commit()
}

// ReservedIDs returns the sorted vertex IDs currently marked reserved
// (transceivers and switch ports); the reconciliation loop diffs this
// against the union of all attachment records' paths to find orphaned or
// missing reservations.
func (m *Model) ReservedIDs() []graphdb.ID {
	var out []graphdb.ID
	for _, label := range []string{LabelTransceiver, LabelSwitchPort} {
		for _, id := range m.g.VerticesByLabel(label) {
			if r, _ := m.g.VertexProp(id, "reserved"); r == true {
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FreeTransceivers counts unreserved transceivers on a host endpoint role.
func (m *Model) FreeTransceivers(host, role string) int {
	n := 0
	for _, id := range m.xcvrs[endpointKey{host, role}] {
		if r, _ := m.g.VertexProp(id, "reserved"); r != true {
			n++
		}
	}
	return n
}
