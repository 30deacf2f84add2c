package graphdb

import (
	"testing"
	"testing/quick"
)

func TestVertexEdgeBasics(t *testing.T) {
	g := New()
	a := g.AddVertex("compute", map[string]any{"host": "node0"})
	b := g.AddVertex("memory", map[string]any{"host": "node1"})
	e, err := g.AddEdge("link", a, b, map[string]any{"gbps": 100})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := g.Vertex(a)
	if !ok || v.Label != "compute" || v.Props["host"] != "node0" {
		t.Fatalf("vertex = %+v", v)
	}
	ed, ok := g.Edge(e)
	if !ok || ed.A != a || ed.B != b || ed.Props["gbps"] != 100 {
		t.Fatalf("edge = %+v", ed)
	}
	if _, ok := g.EdgeBetween(a, b); !ok {
		t.Fatal("EdgeBetween missed")
	}
	if _, ok := g.EdgeBetween(b, a); !ok {
		t.Fatal("EdgeBetween not symmetric")
	}
	if ns := g.Neighbors(a); len(ns) != 1 || ns[0] != b {
		t.Fatalf("neighbors = %v", ns)
	}
}

func TestEdgeValidation(t *testing.T) {
	g := New()
	a := g.AddVertex("x", nil)
	b := g.AddVertex("x", nil)
	if _, err := g.AddEdge("l", a, 999, nil); err == nil {
		t.Fatal("edge to missing vertex accepted")
	}
	if _, err := g.AddEdge("l", a, a, nil); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddEdge("l", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("l", b, a, nil); err == nil {
		t.Fatal("duplicate (undirected) edge accepted")
	}
}

func TestRemoveVertexCascades(t *testing.T) {
	g := New()
	a := g.AddVertex("x", nil)
	b := g.AddVertex("x", nil)
	c := g.AddVertex("x", nil)
	g.AddEdge("l", a, b, nil)
	g.AddEdge("l", b, c, nil)
	if err := g.RemoveVertex(b); err != nil {
		t.Fatal(err)
	}
	if vs, es := g.Counts(); vs != 2 || es != 0 {
		t.Fatalf("counts = %d/%d, want 2/0", vs, es)
	}
	if ns := g.Neighbors(a); len(ns) != 0 {
		t.Fatalf("dangling adjacency: %v", ns)
	}
	if ids := g.VerticesByLabel("x"); len(ids) != 2 {
		t.Fatalf("label index stale: %v", ids)
	}
}

func TestFindVertex(t *testing.T) {
	g := New()
	g.AddVertex("host", map[string]any{"name": "a"})
	want := g.AddVertex("host", map[string]any{"name": "b"})
	v, ok := g.FindVertex("host", "name", "b")
	if !ok || v.ID != want {
		t.Fatalf("find = %+v, %v", v, ok)
	}
	if _, ok := g.FindVertex("host", "name", "zzz"); ok {
		t.Fatal("found nonexistent vertex")
	}
}

func TestShortestPath(t *testing.T) {
	g := New()
	// a - b - c - d  plus shortcut a - x - d
	a := g.AddVertex("v", nil)
	b := g.AddVertex("v", nil)
	c := g.AddVertex("v", nil)
	d := g.AddVertex("v", nil)
	x := g.AddVertex("v", nil)
	g.AddEdge("l", a, b, nil)
	g.AddEdge("l", b, c, nil)
	g.AddEdge("l", c, d, nil)
	g.AddEdge("l", a, x, nil)
	g.AddEdge("l", x, d, nil)
	path, ok := g.ShortestPath(a, []ID{d}, nil)
	if !ok || len(path) != 3 || path[1] != x {
		t.Fatalf("path = %v", path)
	}
	// Filter out the shortcut: must take the long way.
	path, ok = g.ShortestPath(a, []ID{d}, func(e *Edge, _ *Vertex) bool { return !(e.A == x || e.B == x) })
	if !ok || len(path) != 4 {
		t.Fatalf("filtered path = %v", path)
	}
	// No path when everything is filtered.
	if _, ok := g.ShortestPath(a, []ID{d}, func(*Edge, *Vertex) bool { return false }); ok {
		t.Fatal("found path through fully filtered graph")
	}
	// Self path.
	if p, ok := g.ShortestPath(a, []ID{a}, nil); !ok || len(p) != 1 {
		t.Fatalf("self path = %v", p)
	}
	// Several targets: the first reachable one in the caller's order wins,
	// even when a later one is nearer.
	lone := g.AddVertex("v", nil)
	if p, ok := g.ShortestPath(a, []ID{lone, c, b}, nil); !ok || len(p) != 3 || p[2] != c {
		t.Fatalf("multi-target path = %v", p)
	}
	if _, ok := g.ShortestPath(a, []ID{lone}, nil); ok {
		t.Fatal("found path to an isolated vertex")
	}
	// The filter sees the stored vertex each edge enters.
	g.SetVertexProp(x, "blocked", true)
	path, ok = g.ShortestPath(a, []ID{d}, func(_ *Edge, to *Vertex) bool {
		return to.Props["blocked"] == nil
	})
	if !ok || len(path) != 4 {
		t.Fatalf("vertex-filtered path = %v", path)
	}
}

func TestTxCommit(t *testing.T) {
	g := New()
	tx := g.Begin()
	a := tx.AddVertex("v", nil)
	b := tx.AddVertex("v", nil)
	if _, err := tx.AddEdge("l", a, b, map[string]any{"reserved": false}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if vs, es := g.Counts(); vs != 2 || es != 1 {
		t.Fatalf("counts after commit = %d/%d", vs, es)
	}
}

func TestTxRollback(t *testing.T) {
	g := New()
	base := g.AddVertex("v", map[string]any{"state": "free"})
	tx := g.Begin()
	a := tx.AddVertex("v", nil)
	if _, err := tx.AddEdge("l", base, a, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetVertexProp(base, "state", "reserved"); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if vs, es := g.Counts(); vs != 1 || es != 0 {
		t.Fatalf("counts after rollback = %d/%d, want 1/0", vs, es)
	}
	v, _ := g.Vertex(base)
	if v.Props["state"] != "free" {
		t.Fatalf("prop not restored: %v", v.Props["state"])
	}
	if ns := g.Neighbors(base); len(ns) != 0 {
		t.Fatalf("adjacency not restored: %v", ns)
	}
}

func TestTxUseAfterFinishPanics(t *testing.T) {
	g := New()
	tx := g.Begin()
	tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on finished tx")
		}
	}()
	tx.AddVertex("v", nil)
}

func TestPropertyIsolationFromCaller(t *testing.T) {
	g := New()
	props := map[string]any{"k": 1}
	id := g.AddVertex("v", props)
	props["k"] = 2 // mutate caller's map
	v, _ := g.Vertex(id)
	if v.Props["k"] != 1 {
		t.Fatal("graph aliases caller's property map")
	}
	v.Props["k"] = 3 // mutate returned copy
	v2, _ := g.Vertex(id)
	if v2.Props["k"] != 1 {
		t.Fatal("returned vertex aliases stored properties")
	}
}

// Property: rollback always restores exact vertex/edge counts.
func TestQuickRollbackRestoresCounts(t *testing.T) {
	f := func(ops []uint8) bool {
		g := New()
		seed := []ID{g.AddVertex("v", nil), g.AddVertex("v", nil), g.AddVertex("v", nil)}
		g.AddEdge("l", seed[0], seed[1], nil)
		v0, e0 := g.Counts()
		tx := g.Begin()
		verts := append([]ID(nil), seed...)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				verts = append(verts, tx.AddVertex("v", nil))
			case 1:
				if len(verts) >= 2 {
					tx.AddEdge("l", verts[len(verts)-1], verts[0], nil)
				}
			case 2:
				tx.SetVertexProp(verts[int(op)%len(verts)], "p", int(op))
			}
		}
		tx.Rollback()
		v1, e1 := g.Counts()
		return v0 == v1 && e0 == e1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
