package graphdb

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// checkAdjacency recounts every vertex's neighbours from the edge set and
// checks the stored adjacency against it: sorted by neighbour, one entry
// per incident edge, each entry pointing at that stored edge and at the
// stored neighbour vertex. A search follows those pointers without looking
// the edge or vertex up, so a stale pointer would let it read a removed
// element or miss a property change.
func checkAdjacency(t *testing.T, g *Graph, context string) {
	t.Helper()
	want := make(map[ID][]ID)
	for _, e := range g.edges {
		want[e.A] = append(want[e.A], e.B)
		want[e.B] = append(want[e.B], e.A)
	}
	if len(g.adjacent) != len(g.vertices) {
		t.Fatalf("%s: adjacency lists for %d vertices, graph has %d", context, len(g.adjacent), len(g.vertices))
	}
	for id := range g.vertices {
		got := g.Neighbors(id)
		if !slices.IsSorted(got) {
			t.Fatalf("%s: neighbours of %d not sorted: %v", context, id, got)
		}
		w := want[id]
		slices.Sort(w)
		if len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
			t.Fatalf("%s: neighbours of %d = %v, edge set says %v", context, id, got, w)
		}
		for _, h := range g.adjacent[id] {
			if e := g.edges[h.e.ID]; e != h.e || !(e.A == id && e.B == h.n || e.B == id && e.A == h.n) {
				t.Fatalf("%s: vertex %d lists edge %d to %d, which is not the stored edge joining them", context, id, h.e.ID, h.n)
			}
			if v := g.vertices[h.n]; v == nil || v != h.v {
				t.Fatalf("%s: vertex %d's entry for neighbour %d does not point at the stored vertex", context, id, h.n)
			}
		}
	}
}

// neighbourSnapshot records every vertex's neighbour list.
func neighbourSnapshot(g *Graph) map[ID][]ID {
	out := make(map[ID][]ID)
	for id := range g.vertices {
		out[id] = g.Neighbors(id)
	}
	return out
}

// TestAdjacencyStaysSortedUnderMutation drives seeded mixes of edge and
// vertex additions and removals, committed and rolled-back transactions,
// and checks after every step that the adjacency equals a recount from the
// edge set, and that a rollback restores the adjacency it started from.
func TestAdjacencyStaysSortedUnderMutation(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var verts []ID
		for i := 0; i < 10; i++ {
			verts = append(verts, g.AddVertex("v", nil))
		}
		pick := func() ID { return verts[rng.Intn(len(verts))] }
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(6); op {
			case 0, 1:
				g.AddEdge("l", pick(), pick(), nil) //nolint:errcheck // duplicates and self-loops are refused
			case 2:
				if len(g.edges) > 0 {
					ids := make([]ID, 0, len(g.edges))
					for id := range g.edges {
						ids = append(ids, id)
					}
					slices.Sort(ids)
					if err := g.RemoveEdge(ids[rng.Intn(len(ids))]); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				i := rng.Intn(len(verts))
				if err := g.RemoveVertex(verts[i]); err != nil {
					t.Fatal(err)
				}
				verts[i] = g.AddVertex("v", nil)
			case 4, 5:
				before := neighbourSnapshot(g)
				tx := g.Begin()
				added := append([]ID(nil), verts...)
				for k := rng.Intn(8); k > 0; k-- {
					switch rng.Intn(3) {
					case 0:
						added = append(added, tx.AddVertex("v", nil))
					case 1:
						tx.AddEdge("l", added[rng.Intn(len(added))], added[rng.Intn(len(added))], nil) //nolint:errcheck
					case 2:
						tx.SetVertexProp(pick(), "p", k) //nolint:errcheck
					}
				}
				if op == 4 {
					tx.Rollback()
					if after := neighbourSnapshot(g); !reflect.DeepEqual(before, after) {
						t.Fatalf("seed %d step %d: rollback left adjacency %v, want %v", seed, step, after, before)
					}
				} else {
					tx.Commit()
					verts = added
				}
			}
			checkAdjacency(t, g, "after mutation")
		}
	}
}

// TestConcurrentSearchesAndWriters runs path searches and neighbour reads
// against property writers and write transactions. The search filter reads
// the vertex it is handed under the search's read lock; a filter
// that had to re-enter the graph for them would take the read lock
// recursively and deadlock as soon as a writer queued between the two
// acquisitions.
func TestConcurrentSearchesAndWriters(t *testing.T) {
	g := New()
	const n = 48
	verts := make([]ID, n)
	for i := range verts {
		verts[i] = g.AddVertex("v", map[string]any{"reserved": false})
	}
	for i := range verts {
		g.AddEdge("l", verts[i], verts[(i+1)%n], nil) //nolint:errcheck
		g.AddEdge("l", verts[i], verts[(i+7)%n], nil) //nolint:errcheck
	}
	free := func(_ *Edge, to *Vertex) bool {
		return to.Props["reserved"] != true
	}
	iterations := 2000
	if testing.Short() || raceEnabled {
		iterations = 300
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < iterations; i++ {
				from := verts[rng.Intn(n)]
				g.ShortestPath(from, []ID{verts[rng.Intn(n)], verts[rng.Intn(n)]}, free)
				g.Neighbors(from)
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iterations; i++ {
				if err := g.SetVertexProp(verts[rng.Intn(n)], "reserved", rng.Intn(2) == 0); err != nil {
					t.Error(err)
					return
				}
				tx := g.Begin()
				v := tx.AddVertex("v", map[string]any{"reserved": false})
				tx.AddEdge("l", v, verts[rng.Intn(n)], nil)            //nolint:errcheck
				tx.SetVertexProp(verts[rng.Intn(n)], "reserved", true) //nolint:errcheck
				if rng.Intn(2) == 0 {
					tx.Rollback()
				} else {
					tx.Commit()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("searches and writers did not finish: lock cycle between the search and a writer")
	}
	checkAdjacency(t, g, "after concurrent writers")
}
