package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"thymesisflow/internal/raft"
)

// ErrNotLeader rejects a mutating control-plane request on a node that is
// not the Raft leader. Like ErrOverloaded it fires before the saga mutex;
// callers should retry against the leader hint.
var ErrNotLeader = errors.New("controlplane: not the leader")

// NotLeaderError carries the last known leader as a redirect hint.
type NotLeaderError struct{ Leader string }

// Error implements error.
func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "controlplane: not the leader (no leader elected)"
	}
	return fmt.Sprintf("controlplane: not the leader (leader is %s)", e.Leader)
}

// Is makes errors.Is(err, ErrNotLeader) match.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// ErrQuorumLost is returned by ReplicatedJournal.Append when an entry
// cannot reach a commit quorum within the replication budget (partitioned
// leader, too many dead peers). The saga engine treats any journal append
// failure as a control-plane crash, so a fenced stale leader halts
// mid-saga exactly like a process kill — and the new leader's Recover()
// finishes or compensates the saga. That is the fencing mechanism: a
// leader that lost quorum can never commit (and therefore never acks) new
// work.
var ErrQuorumLost = errors.New("controlplane: journal append lost quorum")

// ReplicaSet runs an embedded Raft cluster whose replicated log carries
// the saga write-ahead journal across 3/5 control-plane nodes. Each node
// exposes a ReplicatedJournal (Journal interface) whose appends commit
// only after quorum ack; the Service bound to the current leader executes
// sagas, followers replicate, and after a leader kill the next leader runs
// the existing Recover() path over the committed log.
//
// The set advances virtual time only inside Append calls and explicit
// Tick/ElectLeader calls, so a chaos scenario driven from one goroutine
// reproduces byte-identically from its seed.
type ReplicaSet struct {
	cluster *raft.Cluster
	ids     []string

	mu       sync.Mutex
	journals map[string]*ReplicatedJournal

	// appendBudget bounds how many ticks one Append may pump waiting for
	// quorum before reporting ErrQuorumLost.
	appendBudget int
}

// NewReplicaSet builds a replica set over in-memory Raft storage.
func NewReplicaSet(ids []string, seed int64) (*ReplicaSet, error) {
	cluster, err := raft.NewCluster(ids, raft.DefaultConfig(), seed, nil)
	if err != nil {
		return nil, err
	}
	return &ReplicaSet{
		cluster:      cluster,
		ids:          cluster.IDs(),
		journals:     make(map[string]*ReplicatedJournal),
		appendBudget: 200,
	}, nil
}

// IDs returns the member IDs in sorted order.
func (rs *ReplicaSet) IDs() []string { return append([]string(nil), rs.ids...) }

// ElectLeader ticks the cluster until a leader other than exclude exists
// AND its commit index covers its whole log (the election no-op has
// committed, so every entry inherited from prior terms is quorum-committed
// and visible to Recover()). It returns the leader ID. A stale leader can
// linger as "leader" in its own partition, so excluding it is what "the
// majority side elected a successor" means; pass "" to accept any leader.
func (rs *ReplicaSet) ElectLeader(maxTicks int, exclude string) (string, error) {
	for i := 0; i < maxTicks; i++ {
		if id := rs.cluster.Leader(); id != "" && id != exclude {
			st := rs.cluster.Status(id)
			if st.Commit == st.LastIndex {
				return id, nil
			}
		}
		if err := rs.cluster.Tick(); err != nil {
			return "", err
		}
	}
	return "", fmt.Errorf("controlplane: no leader other than %q with full committed log after %d ticks", exclude, maxTicks)
}

// Leader returns the current leader ID, or "" if none.
func (rs *ReplicaSet) Leader() string { return rs.cluster.Leader() }

// Journal returns node id's ReplicatedJournal view (one per node, cached —
// its applied cursor survives re-binding a Service after failover).
func (rs *ReplicaSet) Journal(id string) *ReplicatedJournal {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	j, ok := rs.journals[id]
	if !ok {
		j = &ReplicatedJournal{rs: rs, id: id}
		rs.journals[id] = j
	}
	return j
}

// Gate returns the leader gate for node id: nil when id currently leads,
// *NotLeaderError with the leader hint otherwise. Service.SetLeaderGate
// installs it ahead of the admission check, mirroring SetMaxInflightSagas.
func (rs *ReplicaSet) Gate(id string) func() error {
	return func() error {
		st := rs.cluster.Status(id)
		if st.Role == "leader" && !st.Stopped {
			return nil
		}
		hint := st.Leader
		if hint == id {
			hint = ""
		}
		return &NotLeaderError{Leader: hint}
	}
}

// Status returns node id's Raft state.
func (rs *ReplicaSet) Status(id string) raft.MemberStatus { return rs.cluster.Status(id) }

// Tick advances the cluster n virtual ticks (heartbeats, elections,
// catch-up replication happen only inside ticks).
func (rs *ReplicaSet) Tick(n int) error { return rs.cluster.TickN(n) }

// Stop crashes node id (storage retained for Restart).
func (rs *ReplicaSet) Stop(id string) { rs.cluster.Stop(id) }

// Restart revives node id from its persistent storage.
func (rs *ReplicaSet) Restart(id string) error { return rs.cluster.Restart(id) }

// PartitionOneWay cuts only Raft messages flowing from -> to.
func (rs *ReplicaSet) PartitionOneWay(from, to string) { rs.cluster.PartitionOneWay(from, to) }

// Isolate cuts member id off from every peer.
func (rs *ReplicaSet) Isolate(id string) { rs.cluster.Isolate(id) }

// HealAll removes every Raft partition cut.
func (rs *ReplicaSet) HealAll() { rs.cluster.HealAll() }

// Members returns every member's Raft status in ID order.
func (rs *ReplicaSet) Members() []raft.MemberStatus { return rs.cluster.Members() }

// LeaderChanges counts observed leader transitions.
func (rs *ReplicaSet) LeaderChanges() uint64 { return rs.cluster.LeaderChanges() }

// DroppedMessages counts Raft messages lost to partitions and crashes.
func (rs *ReplicaSet) DroppedMessages() uint64 { return rs.cluster.DroppedMessages() }

// CommittedEntries decodes node id's quorum-committed journal prefix
// without moving its applied cursor — the chaos scenarios use it to assert
// log convergence across replicas after healing.
func (rs *ReplicaSet) CommittedEntries(id string) ([]JournalEntry, error) {
	raw := rs.cluster.Entries(id)
	out := make([]JournalEntry, 0, len(raw))
	for _, e := range raw {
		if len(e.Data) == 0 {
			continue // leader no-op
		}
		var je JournalEntry
		if err := json.Unmarshal(e.Data, &je); err != nil {
			return nil, fmt.Errorf("controlplane: decode replicated entry %d: %w", e.Index, err)
		}
		out = append(out, je)
	}
	return out, nil
}

// ReplicatedJournal is one node's Journal view over the replica set's
// Raft log. Append proposes the entry through this node and pumps the
// cluster until the entry is quorum-committed (or the budget runs out —
// ErrQuorumLost, which the saga engine treats as a crash). Entries returns
// the node's committed, decoded journal history for Recover().
type ReplicatedJournal struct {
	rs *ReplicaSet
	id string

	mu      sync.Mutex
	cache   []JournalEntry
	through uint64 // highest raft index folded into cache
}

// Append implements Journal: marshal, propose, pump until quorum commit.
// Success requires more than CommitIndex >= idx: under an asymmetric
// partition (outbound cut, inbound open) the proposing leader can be
// deposed mid-pump, its entry truncated and replaced by the new leader's
// entry at the same index, and its commit index then advances past idx via
// incoming AppendEntries. Acking on commit index alone would report
// durable success for a write that was lost, so Append re-checks that the
// entry at idx still carries the term Propose assigned before returning
// nil; on mismatch it reports the deposition as NotLeaderError.
func (r *ReplicatedJournal) Append(e JournalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	idx, term, err := r.rs.cluster.Propose(r.id, data)
	if err != nil {
		var nl *raft.NotLeaderError
		if errors.As(err, &nl) {
			return &NotLeaderError{Leader: nl.Leader}
		}
		return err
	}
	for i := 0; i < r.rs.appendBudget; i++ {
		if r.rs.cluster.CommitIndex(r.id) >= idx {
			if at, ok := r.rs.cluster.TermAt(r.id, idx); ok && at == term {
				return nil
			}
			// A newer leader overwrote index idx: the proposal is gone.
			hint := r.rs.cluster.Status(r.id).Leader
			if hint == r.id {
				hint = ""
			}
			return &NotLeaderError{Leader: hint}
		}
		if err := r.rs.cluster.Tick(); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w (entry %d uncommitted after %d ticks)", ErrQuorumLost, idx, r.rs.appendBudget)
}

// Entries implements Journal: the node's committed journal prefix, decoded
// in log order. Only quorum-committed entries are ever returned, so a new
// leader's Recover() sees exactly the history every replica agrees on.
func (r *ReplicatedJournal) Entries() ([]JournalEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.rs.cluster.TakeCommitted(r.id) {
		if e.Index <= r.through {
			continue // already folded (node restarted, cursor reset)
		}
		r.through = e.Index
		if len(e.Data) == 0 {
			continue // leader no-op
		}
		var je JournalEntry
		if err := json.Unmarshal(e.Data, &je); err != nil {
			return nil, fmt.Errorf("controlplane: decode replicated entry %d: %w", e.Index, err)
		}
		r.cache = append(r.cache, je)
	}
	return append([]JournalEntry(nil), r.cache...), nil
}
