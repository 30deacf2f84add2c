package graphdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// referenceFilter is the filter form of the reference search: it judges an
// edge with both of its endpoint vertices.
type referenceFilter func(e Edge, a, b Vertex) bool

// referenceShortestPath is the search as it stood with map-based state: a
// breadth-first search from `from` that runs until the queue empties, then
// returns the path to the first target, in the caller's order, that it
// reached. It reads the graph only through its public API, so it does not
// share the adjacency pointers or the pooled arrays of ShortestPath.
func referenceShortestPath(g *Graph, from ID, targets []ID, filter referenceFilter) ([]ID, bool) {
	if _, found := g.Vertex(from); !found || len(targets) == 0 {
		return nil, false
	}
	prev := map[ID]ID{from: from}
	queue := []ID{from}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, n := range g.Neighbors(cur) {
			if _, seen := prev[n]; seen {
				continue
			}
			if filter != nil {
				e, _ := g.EdgeBetween(cur, n)
				a, _ := g.Vertex(e.A)
				b, _ := g.Vertex(e.B)
				if !filter(e, a, b) {
					continue
				}
			}
			prev[n] = cur
			queue = append(queue, n)
		}
	}
	for _, to := range targets {
		if _, reached := prev[to]; !reached {
			continue
		}
		var rev []ID
		for at := to; at != from; at = prev[at] {
			rev = append(rev, at)
		}
		rev = append(rev, from)
		path := make([]ID, len(rev))
		for i, at := range rev {
			path[len(rev)-1-i] = at
		}
		return path, true
	}
	return nil, false
}

// searchCase pairs a ShortestPath filter with the reference filter that
// accepts the same edges. vertexRule marks filters that judge vertices: the
// reference judges both endpoints, ShortestPath only the one being entered,
// and the two agree whenever the start itself passes the rule.
type searchCase struct {
	name       string
	filter     EdgeFilter
	reference  referenceFilter
	vertexRule bool
}

func blocked(v *Vertex) bool { return v.Props["blocked"] == true }

var searchCases = []searchCase{
	{name: "nil"},
	{
		name:      "label",
		filter:    func(e *Edge, _ *Vertex) bool { return e.Label == "link" },
		reference: func(e Edge, _, _ Vertex) bool { return e.Label == "link" },
	},
	{
		name:       "vertex-prop",
		filter:     func(_ *Edge, to *Vertex) bool { return !blocked(to) },
		reference:  func(_ Edge, a, b Vertex) bool { return !blocked(&a) && !blocked(&b) },
		vertexRule: true,
	},
	{
		name:   "label+vertex-prop",
		filter: func(e *Edge, to *Vertex) bool { return e.Label == "link" && !blocked(to) },
		reference: func(e Edge, a, b Vertex) bool {
			return e.Label == "link" && !blocked(&a) && !blocked(&b)
		},
		vertexRule: true,
	},
	{
		name:      "none",
		filter:    func(*Edge, *Vertex) bool { return false },
		reference: func(Edge, Vertex, Vertex) bool { return false },
	},
}

// randomSearchGraph builds a seeded graph with gaps in its IDs: vertices
// removed outright, and vertices and edges added by transactions that
// rolled back. Edges carry one of two labels and some vertices are marked
// blocked. It returns every ID it handed out, live or not.
func randomSearchGraph(rng *rand.Rand) (*Graph, []ID) {
	g := New()
	var ids []ID
	n := 2 + rng.Intn(30)
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddVertex("v", map[string]any{"blocked": rng.Intn(5) == 0}))
	}
	labels := []string{"link", "has"}
	for k := rng.Intn(3 * n); k > 0; k-- {
		//nolint:errcheck // duplicates, self-loops and removed endpoints are refused
		g.AddEdge(labels[rng.Intn(2)], ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], nil)
		switch rng.Intn(12) {
		case 0:
			g.RemoveVertex(ids[rng.Intn(len(ids))]) //nolint:errcheck // may already be gone
		case 1:
			tx := g.Begin()
			ids = append(ids, tx.AddVertex("v", nil))
			tx.AddEdge("link", ids[rng.Intn(len(ids))], ids[len(ids)-1], nil) //nolint:errcheck
			if rng.Intn(2) == 0 {
				tx.Rollback()
			} else {
				tx.Commit()
			}
		case 2:
			g.SetVertexProp(ids[rng.Intn(len(ids))], "blocked", rng.Intn(2) == 0) //nolint:errcheck
		}
	}
	return g, ids
}

// TestShortestPathMatchesReference compares ShortestPath with the
// map-based reference search on seeded random graphs, for every filter
// kind and for target lists that include the start, removed and
// unreachable vertices, and repeats. Paths and ok must match exactly.
func TestShortestPathMatchesReference(t *testing.T) {
	found, missed, early := 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ids := randomSearchGraph(rng)
		for q := 0; q < 20; q++ {
			from := ids[rng.Intn(len(ids))]
			targets := make([]ID, rng.Intn(5))
			for i := range targets {
				targets[i] = ids[rng.Intn(len(ids))]
			}
			if len(targets) > 0 && rng.Intn(6) == 0 {
				targets[rng.Intn(len(targets))] = from
			}
			v, live := g.Vertex(from)
			for _, c := range searchCases {
				if c.vertexRule && live && blocked(&v) {
					continue // the caller checks the start; see searchCase
				}
				got, gotOK := g.ShortestPath(from, targets, c.filter)
				want, wantOK := referenceShortestPath(g, from, targets, c.reference)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d query %d filter %s: ShortestPath(%d, %v) = %v %v, reference %v %v",
						seed, q, c.name, from, targets, got, gotOK, want, wantOK)
				}
				switch {
				case !gotOK:
					missed++
				case len(targets) > 1 && got[len(got)-1] == targets[0]:
					early++
					found++
				default:
					found++
				}
			}
		}
	}
	// Found and missed targets, and multi-target searches that end at the
	// first target, must all occur for the comparison to mean anything.
	if found < 5000 || missed < 8000 || early < 2000 {
		t.Fatalf("%d found (%d ending at targets[0] of several), %d missed; the generator lost coverage",
			found, early, missed)
	}
}

// TestShortestPathAcrossGraphs runs searches on a large graph and a small
// one in turn, so that the pooled search arrays sized and stamped by one
// graph are reused by the other.
func TestShortestPathAcrossGraphs(t *testing.T) {
	big, small := New(), New()
	var prev ID
	for i := 0; i < 500; i++ {
		v := big.AddVertex("v", nil)
		if i > 0 {
			big.AddEdge("l", prev, v, nil) //nolint:errcheck
		}
		prev = v
	}
	a, b, c := small.AddVertex("v", nil), small.AddVertex("v", nil), small.AddVertex("v", nil)
	small.AddEdge("l", a, b, nil) //nolint:errcheck
	for i := 0; i < 10; i++ {
		if p, ok := big.ShortestPath(1, []ID{prev}, nil); !ok || len(p) != 500 {
			t.Fatalf("big graph: path of %d vertices, ok=%v", len(p), ok)
		}
		if p, ok := small.ShortestPath(a, []ID{c, b}, nil); !ok || fmt.Sprint(p) != fmt.Sprint([]ID{a, b}) {
			t.Fatalf("small graph: path %v, ok=%v", p, ok)
		}
		if _, ok := small.ShortestPath(a, []ID{c, prev}, nil); ok {
			t.Fatal("small graph: reached an isolated vertex or an ID it does not hold")
		}
	}
}
