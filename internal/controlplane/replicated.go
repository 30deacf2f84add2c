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
var ErrNotLeader = raft.ErrNotLeader

// NotLeaderError carries the last known leader as a redirect hint.
type NotLeaderError = raft.NotLeaderError

// ErrQuorumLost is returned by ReplicatedJournal.Append when an entry
// cannot reach a commit quorum within the replication budget (partitioned
// leader, too many dead peers). The saga engine treats any journal append
// failure as a control-plane crash, so a fenced stale leader halts
// mid-saga exactly like a process kill — and the new leader's Recover()
// finishes or compensates the saga. That is the fencing mechanism: a
// leader that lost quorum can never commit (and therefore never acks) new
// work.
var ErrQuorumLost = errors.New("controlplane: journal append lost quorum")

// appendBudget bounds how many ticks one Append may pump waiting for
// quorum before reporting ErrQuorumLost.
const appendBudget = 200

// ReplicaSet runs an embedded Raft cluster whose replicated log carries
// the saga write-ahead journal across 3/5 control-plane nodes. Each node
// exposes a ReplicatedJournal (Journal interface) whose appends commit
// only after quorum ack; the Service bound to the current leader executes
// sagas, followers replicate, and after a leader kill the next leader runs
// the existing Recover() path over the committed log. The embedded
// Cluster is the fault surface: Stop/Restart, partitions, ticks, status.
//
// The set advances virtual time only inside Append calls and explicit
// Tick/ElectLeader calls, so a chaos scenario driven from one goroutine
// reproduces byte-identically from its seed.
type ReplicaSet struct {
	*raft.Cluster

	mu       sync.Mutex
	journals map[string]*ReplicatedJournal
}

// NewReplicaSet builds a replica set of fresh Raft nodes.
func NewReplicaSet(ids []string, seed int64) (*ReplicaSet, error) {
	cluster, err := raft.NewCluster(ids, seed)
	if err != nil {
		return nil, err
	}
	return &ReplicaSet{Cluster: cluster, journals: make(map[string]*ReplicatedJournal)}, nil
}

// ElectLeader ticks the cluster until a leader other than exclude exists
// AND its commit index covers its whole log (the election no-op has
// committed, so every entry inherited from prior terms is quorum-committed
// and visible to Recover()). It returns the leader ID. A stale leader can
// linger as "leader" in its own partition, so excluding it is what "the
// majority side elected a successor" means; pass "" to accept any leader.
func (rs *ReplicaSet) ElectLeader(maxTicks int, exclude string) (string, error) {
	for i := 0; i < maxTicks; i++ {
		if id := rs.Leader(); id != "" && id != exclude {
			st := rs.Status(id)
			if st.Commit == st.LastIndex {
				return id, nil
			}
		}
		rs.Tick()
	}
	return "", fmt.Errorf("controlplane: no leader other than %q with full committed log after %d ticks", exclude, maxTicks)
}

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
		st := rs.Status(id)
		if st.Role == "leader" && !st.Stopped {
			return nil
		}
		return rs.notLeader(id)
	}
}

// notLeader is the redirect error for node id, hinting at the leader id
// last heard from (never at itself).
func (rs *ReplicaSet) notLeader(id string) error {
	hint := rs.Status(id).Leader
	if hint == id {
		hint = ""
	}
	return &NotLeaderError{Leader: hint}
}

// CommittedEntries decodes node id's quorum-committed journal prefix
// without moving its applied cursor — the chaos scenarios use it to assert
// log convergence across replicas after healing.
func (rs *ReplicaSet) CommittedEntries(id string) ([]JournalEntry, error) {
	raw := rs.Entries(id)
	return appendDecoded(make([]JournalEntry, 0, len(raw)), raw)
}

// appendDecoded decodes raft entries onto out in log order, skipping
// leader no-ops.
func appendDecoded(out []JournalEntry, raw []raft.Entry) ([]JournalEntry, error) {
	for _, e := range raw {
		if len(e.Data) == 0 {
			continue // leader no-op
		}
		var je JournalEntry
		if err := json.Unmarshal(e.Data, &je); err != nil {
			return out, fmt.Errorf("controlplane: decode replicated entry %d: %w", e.Index, err)
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
	rs := r.rs
	idx, term, err := rs.Propose(r.id, data)
	if err != nil {
		return err
	}
	for i := 0; i < appendBudget; i++ {
		if rs.CommitIndex(r.id) >= idx {
			if at, ok := rs.TermAt(r.id, idx); ok && at == term {
				return nil
			}
			// A newer leader overwrote index idx: the proposal is gone.
			return rs.notLeader(r.id)
		}
		rs.Tick()
	}
	return fmt.Errorf("%w (entry %d uncommitted after %d ticks)", ErrQuorumLost, idx, appendBudget)
}

// Entries implements Journal: the node's committed journal prefix, decoded
// in log order. Only quorum-committed entries are ever returned, so a new
// leader's Recover() sees exactly the history every replica agrees on.
func (r *ReplicatedJournal) Entries() ([]JournalEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fresh := r.rs.TakeCommitted(r.id)
	for len(fresh) > 0 && fresh[0].Index <= r.through {
		fresh = fresh[1:] // already folded (node restarted, cursor reset)
	}
	if len(fresh) > 0 {
		r.through = fresh[len(fresh)-1].Index
	}
	var err error
	if r.cache, err = appendDecoded(r.cache, fresh); err != nil {
		return nil, err
	}
	return append([]JournalEntry(nil), r.cache...), nil
}
