package graphdb

import "fmt"

// Tx is a write transaction: mutations apply to the graph immediately but
// are journaled so Rollback restores the pre-transaction state. Writers are
// serialized (single-writer), mirroring the control plane's use of its
// backing store for reservations.
type Tx struct {
	g    *Graph
	undo []func()
	done bool
}

// Begin starts a write transaction, blocking other writers until Commit or
// Rollback.
func (g *Graph) Begin() *Tx {
	g.mu.Lock()
	return &Tx{g: g}
}

// AddVertex inserts a vertex within the transaction.
func (t *Tx) AddVertex(label string, props map[string]any) ID {
	t.check()
	id := t.g.addVertexLocked(label, props)
	t.undo = append(t.undo, func() {
		delete(t.g.adjacent, id)
		delete(t.g.byLabel[label], id)
		delete(t.g.vertices, id)
	})
	return id
}

// AddEdge inserts an edge within the transaction.
func (t *Tx) AddEdge(label string, a, b ID, props map[string]any) (ID, error) {
	t.check()
	id, err := t.g.addEdgeLocked(label, a, b, props)
	if err != nil {
		return 0, err
	}
	t.undo = append(t.undo, func() {
		t.g.unlinkHalf(a, b)
		t.g.unlinkHalf(b, a)
		delete(t.g.edges, id)
	})
	return id, nil
}

// SetVertexProp updates a vertex property within the transaction.
func (t *Tx) SetVertexProp(id ID, key string, value any) error {
	t.check()
	v, ok := t.g.vertices[id]
	if !ok {
		return fmt.Errorf("graphdb: vertex %d not found", id)
	}
	old, had := v.Props[key]
	if v.Props == nil {
		v.Props = make(map[string]any)
	}
	v.Props[key] = value
	t.undo = append(t.undo, func() {
		if had {
			v.Props[key] = old
		} else {
			delete(v.Props, key)
		}
	})
	return nil
}

// Commit makes the transaction's mutations permanent.
func (t *Tx) Commit() {
	t.check()
	t.done = true
	t.undo = nil
	t.g.mu.Unlock()
}

// Rollback undoes every mutation in reverse order.
func (t *Tx) Rollback() {
	t.check()
	t.done = true
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.undo = nil
	t.g.mu.Unlock()
}

func (t *Tx) check() {
	if t.done {
		panic("graphdb: use of finished transaction")
	}
}
