package raft

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// MemberStatus is one node's externally visible state: the leader gate,
// the settle and convergence checks, and the chaos assertions read it.
type MemberStatus struct {
	ID        string
	Role      string
	Term      uint64
	Commit    uint64
	Applied   uint64
	LastIndex uint64
	Leader    string // last known leader
	Stopped   bool
}

// Cluster owns a set of Raft nodes and a virtual-time message network.
// Everything advances only through Tick, under one mutex, so a cluster
// driven by the same seed and the same call sequence reproduces
// byte-identically — the property every chaos scenario and crash-point
// test in this repo is built on. Messages sent during tick T are delivered
// at tick T+1 (one-tick link latency); partition cuts are evaluated at
// delivery time, so asymmetric cuts drop exactly the directed half.
type Cluster struct {
	mu    sync.Mutex
	ids   []string
	seed  int64
	nodes map[string]*node

	queue   []Message          // in flight, delivered next Tick
	cut     map[[2]string]bool // [from,to] directed partition cuts
	stopped map[string]bool
	dropped uint64 // messages discarded by cuts or stopped nodes

	lastLeader    string
	leaderChanges uint64
}

// NewCluster builds a cluster of len(ids) fresh nodes. Node RNGs derive
// from seed and the node ID, so two clusters with the same seed and IDs
// elect identically.
func NewCluster(ids []string, seed int64) (*Cluster, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("raft: cluster needs at least one member")
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	c := &Cluster{
		ids:     sorted,
		seed:    seed,
		nodes:   make(map[string]*node, len(sorted)),
		cut:     make(map[[2]string]bool),
		stopped: make(map[string]bool),
	}
	for _, id := range sorted {
		c.nodes[id] = newNode(id, sorted, nodeSeed(seed, id))
	}
	return c, nil
}

func nodeSeed(seed int64, id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return seed ^ int64(h.Sum64())
}

// send enqueues a message for next-tick delivery. Must hold c.mu.
func (c *Cluster) send(m Message) { c.queue = append(c.queue, m) }

// blocked reports whether the directed link from->to is cut. Must hold c.mu.
func (c *Cluster) blocked(from, to string) bool { return c.cut[[2]string{from, to}] }

// Tick advances virtual time one step: deliver last tick's messages in
// send order, then tick every running node in ID order.
func (c *Cluster) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tickLocked()
}

// TickN runs n ticks.
func (c *Cluster) TickN(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		c.tickLocked()
	}
}

func (c *Cluster) tickLocked() {
	inflight := c.queue
	c.queue = nil
	for _, m := range inflight {
		if c.stopped[m.To] || c.stopped[m.From] || c.blocked(m.From, m.To) {
			c.dropped++
			continue
		}
		c.nodes[m.To].step(m, c.send)
	}
	for _, id := range c.ids {
		if c.stopped[id] {
			continue
		}
		c.nodes[id].tick(c.send)
	}
	if cur, ok := c.leaderLocked(); ok && cur != c.lastLeader {
		if c.lastLeader != "" {
			c.leaderChanges++
		}
		c.lastLeader = cur
	}
}

// leaderLocked returns the highest-term running leader, if any.
func (c *Cluster) leaderLocked() (string, bool) {
	var (
		best     string
		bestTerm uint64
	)
	for _, id := range c.ids {
		n := c.nodes[id]
		if c.stopped[id] || n.role != Leader {
			continue
		}
		if best == "" || n.term > bestTerm {
			best, bestTerm = id, n.term
		}
	}
	return best, best != ""
}

// Leader returns the current highest-term running leader, or "" if none.
func (c *Cluster) Leader() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, _ := c.leaderLocked()
	return id
}

// Propose submits data through node id. It returns the assigned log index
// and the proposing term, or *NotLeaderError (with hint) when id is not
// the leader. The entry is not yet committed — pump Tick until CommitIndex
// reaches the index, then confirm with TermAt that the entry at that index
// still carries the returned term: a deposed leader's proposal can be
// truncated and replaced by a new leader's entry at the same index, and
// the commit index alone cannot tell the two apart.
func (c *Cluster) Propose(id string, data []byte) (uint64, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return 0, 0, fmt.Errorf("raft: unknown member %q", id)
	}
	if c.stopped[id] {
		return 0, 0, fmt.Errorf("raft: member %q is stopped", id)
	}
	idx, err := n.propose(data, c.send)
	if err != nil {
		return 0, 0, err
	}
	return idx, n.term, nil
}

// TermAt returns the term of node id's log entry at index, or false when
// the node's log does not extend that far. Proposers pair it with the term
// returned by Propose to detect entries overwritten by a newer leader.
func (c *Cluster) TermAt(id string, index uint64) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok || index == 0 || index > n.lastIndex() {
		return 0, false
	}
	return n.termAt(index), true
}

// Stop crashes a node: it stops ticking and all its traffic drops. Its
// term, vote and log are retained for Restart.
func (c *Cluster) Stop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped[id] = true
	// lastLeader is intentionally NOT cleared: when a successor wins the
	// next election, that transition counts as a leader change, and a
	// restarted old leader winning again does not.
}

// Restart revives a stopped node from its term, vote and log; volatile
// state (role, commit index, timers) is rebuilt by the protocol.
func (c *Cluster) Restart(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stopped[id] {
		return
	}
	c.nodes[id].restart(nodeSeed(c.seed, id))
	delete(c.stopped, id)
}

// PartitionOneWay cuts only messages flowing from -> to (asymmetric
// partition: `to` still reaches `from`).
func (c *Cluster) PartitionOneWay(from, to string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut[[2]string{from, to}] = true
}

// Isolate cuts id off from every other member, both directions.
func (c *Cluster) Isolate(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.ids {
		if p == id {
			continue
		}
		c.cut[[2]string{id, p}] = true
		c.cut[[2]string{p, id}] = true
	}
}

// HealAll removes every partition cut.
func (c *Cluster) HealAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut = make(map[[2]string]bool)
}

// CommitIndex returns node id's commit index.
func (c *Cluster) CommitIndex(id string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[id]; ok {
		return n.commit
	}
	return 0
}

// TakeCommitted returns the entries node id has newly committed since the
// previous TakeCommitted call (its applied cursor advances past them).
// This is the state-machine apply hook for ReplicatedJournal.Entries.
func (c *Cluster) TakeCommitted(id string) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok || n.applied >= n.commit {
		return nil
	}
	out := make([]Entry, n.commit-n.applied)
	copy(out, n.log[n.applied:n.commit])
	n.applied = n.commit
	return out
}

// Entries returns a copy of node id's committed log prefix, without
// moving its applied cursor.
func (c *Cluster) Entries(id string) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return nil
	}
	out := make([]Entry, n.commit)
	copy(out, n.log[:n.commit])
	return out
}

// Status returns node id's MemberStatus.
func (c *Cluster) Status(id string) MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(id)
}

func (c *Cluster) statusLocked(id string) MemberStatus {
	n, ok := c.nodes[id]
	if !ok {
		return MemberStatus{ID: id}
	}
	return MemberStatus{
		ID:        id,
		Role:      n.role.String(),
		Term:      n.term,
		Commit:    n.commit,
		Applied:   n.applied,
		LastIndex: n.lastIndex(),
		Leader:    n.leader,
		Stopped:   c.stopped[id],
	}
}

// Members returns every member's status in ID order.
func (c *Cluster) Members() []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MemberStatus, 0, len(c.ids))
	for _, id := range c.ids {
		out = append(out, c.statusLocked(id))
	}
	return out
}

// LeaderChanges counts observed transitions to a different leader.
func (c *Cluster) LeaderChanges() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaderChanges
}

// DroppedMessages counts messages discarded by partitions/crashed nodes.
func (c *Cluster) DroppedMessages() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// IDs returns the member IDs in sorted order.
func (c *Cluster) IDs() []string { return append([]string(nil), c.ids...) }
