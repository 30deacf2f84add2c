// Package graphdb is a small in-memory transactional property graph, the
// stand-in for the Janusgraph backend the paper's control plane uses
// (Section IV-C). The control plane models system state as an undirected
// graph whose vertices are compute/memory endpoints, transceivers and
// switch ports, and whose edges are possible physical links.
//
// The store supports labeled vertices and edges with string-keyed
// properties, undo-log transactions, a label index, and adjacency kept
// sorted by neighbour ID so traversals are deterministic without sorting.
// Each adjacency entry points at the stored edge and neighbour vertex, and
// path searches keep their state in arrays indexed by vertex ID, so a
// search crosses an edge without a map lookup.
// It is not durable: the control plane rebuilds it from its topology and
// recovers reservations from the saga journal.
package graphdb

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// ID identifies a vertex or edge.
type ID int64

// Vertex is a labeled node with properties.
type Vertex struct {
	ID    ID
	Label string
	Props map[string]any
}

// Edge is an undirected labeled connection between two vertices.
type Edge struct {
	ID    ID
	Label string
	A, B  ID
	Props map[string]any
}

// Graph is the store. All exported methods are safe for concurrent use.
type Graph struct {
	mu       sync.RWMutex
	nextID   ID
	vertices map[ID]*Vertex
	edges    map[ID]*Edge
	adjacent map[ID][]halfEdge // vertex -> incident edges, sorted by neighbour
	byLabel  map[string]map[ID]struct{}
}

// halfEdge is one adjacency entry: the neighbour's ID and stored vertex,
// and the stored edge reaching it. The pointers stay valid for as long as
// the entry exists: a vertex or edge is only ever mutated in place, and
// removing either removes its entries.
type halfEdge struct {
	n ID
	v *Vertex
	e *Edge
}

// findHalf returns where neighbour n is, or would be inserted, in adj.
func findHalf(adj []halfEdge, n ID) (int, bool) {
	return slices.BinarySearchFunc(adj, n, func(h halfEdge, n ID) int {
		switch {
		case h.n < n:
			return -1
		case h.n > n:
			return 1
		}
		return 0
	})
}

// link records edge e in the adjacency lists of both its endpoints.
func (g *Graph) link(e *Edge) {
	i, _ := findHalf(g.adjacent[e.A], e.B)
	g.adjacent[e.A] = slices.Insert(g.adjacent[e.A], i, halfEdge{n: e.B, v: g.vertices[e.B], e: e})
	j, _ := findHalf(g.adjacent[e.B], e.A)
	g.adjacent[e.B] = slices.Insert(g.adjacent[e.B], j, halfEdge{n: e.A, v: g.vertices[e.A], e: e})
}

// unlinkHalf drops neighbour n from v's adjacency list.
func (g *Graph) unlinkHalf(v, n ID) {
	if i, ok := findHalf(g.adjacent[v], n); ok {
		g.adjacent[v] = slices.Delete(g.adjacent[v], i, i+1)
	}
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nextID:   1,
		vertices: make(map[ID]*Vertex),
		edges:    make(map[ID]*Edge),
		adjacent: make(map[ID][]halfEdge),
		byLabel:  make(map[string]map[ID]struct{}),
	}
}

// AddVertex inserts a vertex and returns its ID.
func (g *Graph) AddVertex(label string, props map[string]any) ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addVertexLocked(label, props)
}

func (g *Graph) addVertexLocked(label string, props map[string]any) ID {
	id := g.nextID
	g.nextID++
	g.vertices[id] = &Vertex{ID: id, Label: label, Props: cloneProps(props)}
	g.adjacent[id] = nil
	if g.byLabel[label] == nil {
		g.byLabel[label] = make(map[ID]struct{})
	}
	g.byLabel[label][id] = struct{}{}
	return id
}

// AddEdge connects two existing vertices and returns the edge ID.
func (g *Graph) AddEdge(label string, a, b ID, props map[string]any) (ID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addEdgeLocked(label, a, b, props)
}

func (g *Graph) addEdgeLocked(label string, a, b ID, props map[string]any) (ID, error) {
	if _, ok := g.vertices[a]; !ok {
		return 0, fmt.Errorf("graphdb: vertex %d not found", a)
	}
	if _, ok := g.vertices[b]; !ok {
		return 0, fmt.Errorf("graphdb: vertex %d not found", b)
	}
	if a == b {
		return 0, fmt.Errorf("graphdb: self-loop on vertex %d", a)
	}
	if _, dup := findHalf(g.adjacent[a], b); dup {
		return 0, fmt.Errorf("graphdb: edge %d-%d already exists", a, b)
	}
	id := g.nextID
	g.nextID++
	e := &Edge{ID: id, Label: label, A: a, B: b, Props: cloneProps(props)}
	g.edges[id] = e
	g.link(e)
	return id, nil
}

// Vertex returns a copy of the vertex.
func (g *Graph) Vertex(id ID) (Vertex, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	v, ok := g.vertices[id]
	if !ok {
		return Vertex{}, false
	}
	return Vertex{ID: v.ID, Label: v.Label, Props: cloneProps(v.Props)}, true
}

// VertexProp reads one vertex property without copying the property map.
func (g *Graph) VertexProp(id ID, key string) (any, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	v, ok := g.vertices[id]
	if !ok {
		return nil, false
	}
	val, ok := v.Props[key]
	return val, ok
}

// Edge returns a copy of the edge.
func (g *Graph) Edge(id ID) (Edge, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.edges[id]
	if !ok {
		return Edge{}, false
	}
	return Edge{ID: e.ID, Label: e.Label, A: e.A, B: e.B, Props: cloneProps(e.Props)}, true
}

// EdgeBetween returns the edge connecting a and b, if any.
func (g *Graph) EdgeBetween(a, b ID) (Edge, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := findHalf(g.adjacent[a], b)
	if !ok {
		return Edge{}, false
	}
	e := g.adjacent[a][i].e
	return Edge{ID: e.ID, Label: e.Label, A: e.A, B: e.B, Props: cloneProps(e.Props)}, true
}

// Neighbors returns the vertex IDs adjacent to id, sorted for determinism.
func (g *Graph) Neighbors(id ID) []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	adj := g.adjacent[id]
	out := make([]ID, len(adj))
	for i, h := range adj {
		out[i] = h.n
	}
	return out
}

// VerticesByLabel returns the IDs of all vertices with the label, sorted.
func (g *Graph) VerticesByLabel(label string) []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]ID, 0, len(g.byLabel[label]))
	for id := range g.byLabel[label] {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FindVertex returns the first vertex (by ID order) with the label whose
// property key equals value.
func (g *Graph) FindVertex(label, key string, value any) (Vertex, bool) {
	for _, id := range g.VerticesByLabel(label) {
		v, _ := g.Vertex(id)
		if v.Props[key] == value {
			return v, true
		}
	}
	return Vertex{}, false
}

// SetVertexProp updates one vertex property.
func (g *Graph) SetVertexProp(id ID, key string, value any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.vertices[id]
	if !ok {
		return fmt.Errorf("graphdb: vertex %d not found", id)
	}
	if v.Props == nil {
		v.Props = make(map[string]any)
	}
	v.Props[key] = value
	return nil
}

// RemoveEdge deletes an edge.
func (g *Graph) RemoveEdge(id ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("graphdb: edge %d not found", id)
	}
	g.unlinkHalf(e.A, e.B)
	g.unlinkHalf(e.B, e.A)
	delete(g.edges, id)
	return nil
}

// RemoveVertex deletes a vertex and all incident edges.
func (g *Graph) RemoveVertex(id ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.vertices[id]
	if !ok {
		return fmt.Errorf("graphdb: vertex %d not found", id)
	}
	for _, h := range g.adjacent[id] {
		g.unlinkHalf(h.n, id)
		delete(g.edges, h.e.ID)
	}
	delete(g.adjacent, id)
	delete(g.byLabel[v.Label], id)
	delete(g.vertices, id)
	return nil
}

// Counts returns (vertices, edges).
func (g *Graph) Counts() (int, int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.vertices), len(g.edges)
}

// EdgeFilter decides whether a search may cross edge e into vertex to, the
// endpoint it has not yet reached. The search only expands from its start
// and from vertices it entered through accepted edges, so a filter that
// judges the vertex being entered has judged every vertex of every path
// except the start. The filter runs under the graph's read lock and gets
// the stored edge and vertex, so it must not modify them, keep them past
// the call, or call back into the Graph.
type EdgeFilter func(e *Edge, to *Vertex) bool

// bfsScratch is the reusable working state of one ShortestPath call,
// indexed by vertex ID (IDs are dense, below Graph.nextID). A vertex has
// been discovered in the current search when its stamp equals gen, so a
// new search starts by advancing gen rather than clearing the arrays.
type bfsScratch struct {
	gen   uint32
	stamp []uint32
	prev  []ID
	queue []ID
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// begin readies s for a search over IDs below n.
func (s *bfsScratch) begin(n ID) {
	if int(n) > len(s.stamp) {
		s.stamp = slices.Grow(s.stamp, int(n)-len(s.stamp))[:n]
		s.prev = slices.Grow(s.prev, int(n)-len(s.prev))[:n]
	}
	s.gen++
	if s.gen == 0 { // wrapped: stamps from 2^32 searches ago would match
		clear(s.stamp)
		s.gen = 1
	}
}

// ShortestPath runs one breadth-first search from `from` over the edges the
// filter accepts (nil accepts all) and returns the minimum-hop path to the
// first vertex of targets, in the caller's order, that the search reaches.
// The path includes both endpoints; ok is false when no target is reachable.
// Neighbours are visited in ID order and every vertex keeps the parent it
// was first discovered from, so ties break toward lower vertex IDs and the
// path to each target is the one a search for that target alone would find.
// The search stops as soon as it discovers targets[0], which then wins.
func (g *Graph) ShortestPath(from ID, targets []ID, filter EdgeFilter) (path []ID, ok bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, found := g.vertices[from]; !found || len(targets) == 0 {
		return nil, false
	}
	s := bfsPool.Get().(*bfsScratch)
	defer func() {
		s.queue = s.queue[:0]
		bfsPool.Put(s)
	}()
	s.begin(g.nextID)
	first := targets[0]
	s.stamp[from], s.prev[from] = s.gen, from
	s.queue = append(s.queue, from)
search:
	for head := 0; head < len(s.queue) && from != first; head++ {
		cur := s.queue[head]
		for _, h := range g.adjacent[cur] {
			if s.stamp[h.n] == s.gen || filter != nil && !filter(h.e, h.v) {
				continue
			}
			s.stamp[h.n], s.prev[h.n] = s.gen, cur
			if h.n == first {
				break search
			}
			s.queue = append(s.queue, h.n)
		}
	}
	for _, to := range targets {
		if to < 0 || int(to) >= len(s.stamp) || s.stamp[to] != s.gen {
			continue
		}
		n := 1
		for at := to; at != from; at = s.prev[at] {
			n++
		}
		path = make([]ID, n)
		for at := to; ; at = s.prev[at] {
			n--
			path[n] = at
			if at == from {
				break
			}
		}
		return path, true
	}
	return nil, false
}

func cloneProps(p map[string]any) map[string]any {
	if p == nil {
		return nil
	}
	out := make(map[string]any, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}
