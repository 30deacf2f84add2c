// Package raft is a small, deterministic, embedded Raft: leader election
// with randomized timeouts on a virtual tick clock, log replication with
// follower catch-up, and quorum commit. Term, vote and log live on the node
// and survive a crash (Cluster.Stop/Restart). It exists to replicate the
// control plane's write-ahead saga journal across 3/5 orchestrator nodes
// (controlplane.ReplicaSet); the whole protocol runs single-threaded under
// the owning Cluster, so chaos campaigns and crash-point tests reproduce
// byte-identically from a seed.
//
// The implementation follows the Raft paper (Ongaro & Ousterhout, 2014)
// restricted to what a replicated journal needs: no membership changes, no
// snapshots/compaction (journals are bounded per scenario), no client
// sessions. Safety-critical rules are all here: election restriction
// (§5.4.1, votes only for up-to-date candidates), commit only through a
// current-term entry (§5.4.2, via the leader's no-op), and conflict
// truncation on divergent follower logs (§5.3).
package raft

import (
	"errors"
	"fmt"
	"math/rand"
)

// Role is a node's protocol role.
type Role uint8

// Roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Entry is one replicated log record. Index is 1-based and dense; Data is
// opaque to the protocol (the control plane stores encoded journal
// entries). A nil Data marks a leader no-op appended on election win so the
// new leader can commit inherited entries immediately (§5.4.2).
type Entry struct {
	Index uint64
	Term  uint64
	Data  []byte
}

// MsgKind discriminates protocol messages.
type MsgKind uint8

// Message kinds.
const (
	MsgVote MsgKind = iota
	MsgVoteResp
	MsgApp
	MsgAppResp
)

// Message is one protocol message in flight between nodes.
type Message struct {
	Kind MsgKind
	From string
	To   string
	Term uint64

	// MsgVote: candidate's log position for the up-to-date check.
	LastLogIndex uint64
	LastLogTerm  uint64

	// MsgApp: replication batch.
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	Commit       uint64

	// MsgVoteResp.
	Granted bool
	// MsgAppResp: Success with MatchIndex = highest replicated index, or a
	// rejection whose MatchIndex hints where the follower's log ends.
	Success    bool
	MatchIndex uint64
}

// Protocol timers and batch size, in virtual ticks and entries. Each
// election-timer reset draws uniformly from [electionTimeoutMin,
// electionTimeoutMax); a leader heartbeats every heartbeatEvery idle ticks.
const (
	electionTimeoutMin = 10
	electionTimeoutMax = 20
	heartbeatEvery     = 3
	maxAppendEntries   = 64
)

// ErrNotLeader is returned by Propose on a non-leader node. Use errors.As
// with *NotLeaderError to extract the leader hint.
var ErrNotLeader = errors.New("raft: not the leader")

// NotLeaderError carries the last known leader as a redirect hint.
type NotLeaderError struct{ Leader string }

// Error implements error.
func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "raft: not the leader (no leader known)"
	}
	return fmt.Sprintf("raft: not the leader (leader is %s)", e.Leader)
}

// Is makes errors.Is(err, ErrNotLeader) match.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// node is one Raft participant. All methods run single-threaded under the
// owning Cluster's lock; sends go through the injected send func.
type node struct {
	id      string
	members []string // all member IDs including self, sorted by the Cluster
	rng     *rand.Rand

	// Persistent state: survives restart.
	term     uint64
	votedFor string
	log      []Entry // log[i].Index == i+1

	// Volatile state: rebuilt by restart.
	role    Role
	leader  string // last known leader (redirect hint)
	commit  uint64
	applied uint64 // drained by TakeCommitted
	votes   map[string]bool
	next    map[string]uint64
	match   map[string]uint64
	sent    map[string]uint64 // highest index sent per peer (one stream each)

	elapsed int // ticks since last election-timer reset
	timeout int // current randomized election timeout
}

// newNode returns a fresh node: term 0, no vote, empty log.
func newNode(id string, members []string, seed int64) *node {
	n := &node{id: id, members: members}
	n.restart(seed)
	return n
}

// restart keeps term, vote and log, resets every volatile field, and
// re-seeds the election RNG — a crashed node coming back from its
// persisted state.
func (n *node) restart(seed int64) {
	*n = node{
		id:       n.id,
		members:  n.members,
		rng:      rand.New(rand.NewSource(seed)),
		term:     n.term,
		votedFor: n.votedFor,
		log:      n.log,
	}
	n.resetTimer()
}

func (n *node) majority() int { return len(n.members)/2 + 1 }

func (n *node) lastIndex() uint64 { return uint64(len(n.log)) }

func (n *node) termAt(index uint64) uint64 {
	if index == 0 || index > n.lastIndex() {
		return 0
	}
	return n.log[index-1].Term
}

// resetTimer re-arms the randomized election timeout.
func (n *node) resetTimer() {
	n.elapsed = 0
	n.timeout = electionTimeoutMin + n.rng.Intn(electionTimeoutMax-electionTimeoutMin)
}

// tick advances virtual time by one tick: followers and candidates count
// toward an election timeout, leaders heartbeat.
func (n *node) tick(send func(Message)) {
	n.elapsed++
	if n.role == Leader {
		if n.elapsed >= heartbeatEvery {
			n.elapsed = 0
			n.broadcastAppend(send)
		}
		return
	}
	if n.elapsed >= n.timeout {
		n.startElection(send)
	}
}

// startElection begins a new term as candidate (§5.2).
func (n *node) startElection(send func(Message)) {
	n.term++
	n.role = Candidate
	n.votedFor = n.id
	n.leader = ""
	n.votes = map[string]bool{n.id: true}
	n.resetTimer()
	if len(n.votes) >= n.majority() { // single-node cluster
		n.becomeLeader(send)
		return
	}
	for _, p := range n.members {
		if p == n.id {
			continue
		}
		send(Message{
			Kind: MsgVote, From: n.id, To: p, Term: n.term,
			LastLogIndex: n.lastIndex(), LastLogTerm: n.termAt(n.lastIndex()),
		})
	}
}

// becomeLeader initializes leader state and appends the no-op entry that
// lets this term commit everything inherited from prior terms (§5.4.2).
func (n *node) becomeLeader(send func(Message)) {
	n.role = Leader
	n.leader = n.id
	n.elapsed = 0
	n.next = make(map[string]uint64, len(n.members))
	n.match = make(map[string]uint64, len(n.members))
	n.sent = make(map[string]uint64, len(n.members))
	for _, p := range n.members {
		n.next[p] = n.lastIndex() + 1
		n.match[p] = 0
	}
	n.log = append(n.log, Entry{Index: n.lastIndex() + 1, Term: n.term})
	n.match[n.id] = n.lastIndex()
	n.maybeCommit()
	n.broadcastAppend(send)
}

// stepDown converts to follower in term (which must be >= n.term).
func (n *node) stepDown(term uint64) {
	if term != n.term {
		n.term = term
		n.votedFor = ""
	}
	n.role = Follower
	n.resetTimer()
}

// propose appends one entry to the leader's log and starts replication.
func (n *node) propose(data []byte, send func(Message)) (uint64, error) {
	if n.role != Leader {
		return 0, &NotLeaderError{Leader: n.leader}
	}
	e := Entry{Index: n.lastIndex() + 1, Term: n.term, Data: data}
	n.log = append(n.log, e)
	n.match[n.id] = n.lastIndex()
	n.maybeCommit() // a single-node cluster commits on its own vote
	n.broadcastAppend(send)
	return e.Index, nil
}

// broadcastAppend sends one replication batch (possibly empty — a
// heartbeat) to every peer.
func (n *node) broadcastAppend(send func(Message)) {
	for _, p := range n.members {
		if p == n.id {
			continue
		}
		n.sendAppend(p, send)
	}
}

func (n *node) sendAppend(to string, send func(Message)) {
	prev := n.next[to] - 1
	var batch []Entry
	if n.next[to] <= n.lastIndex() {
		hi := min(n.lastIndex(), prev+maxAppendEntries)
		batch = append(batch, n.log[prev:hi]...)
	}
	n.sent[to] = prev + uint64(len(batch))
	send(Message{
		Kind: MsgApp, From: n.id, To: to, Term: n.term,
		PrevLogIndex: prev, PrevLogTerm: n.termAt(prev),
		Entries: batch, Commit: n.commit,
	})
}

// maybeCommit advances the leader commit index to the largest
// quorum-replicated index of the current term (§5.4.2).
func (n *node) maybeCommit() {
	for idx := n.lastIndex(); idx > n.commit; idx-- {
		if n.termAt(idx) != n.term {
			break // only current-term entries commit by counting
		}
		count := 0
		for _, p := range n.members {
			if n.match[p] >= idx {
				count++
			}
		}
		if count >= n.majority() {
			n.commit = idx
			return
		}
	}
}

// step processes one incoming message.
func (n *node) step(m Message, send func(Message)) {
	if m.Term > n.term {
		n.stepDown(m.Term)
	}
	switch m.Kind {
	case MsgVote:
		n.onVote(m, send)
	case MsgVoteResp:
		n.onVoteResp(m, send)
	case MsgApp:
		n.onApp(m, send)
	case MsgAppResp:
		n.onAppResp(m, send)
	}
}

// onVote applies the voting rules: one vote per term, candidates with stale
// logs rejected (§5.4.1).
func (n *node) onVote(m Message, send func(Message)) {
	grant := false
	if m.Term >= n.term && (n.votedFor == "" || n.votedFor == m.From) {
		last := n.lastIndex()
		upToDate := m.LastLogTerm > n.termAt(last) ||
			(m.LastLogTerm == n.termAt(last) && m.LastLogIndex >= last)
		if upToDate {
			grant = true
			n.votedFor = m.From
			n.resetTimer()
		}
	}
	send(Message{Kind: MsgVoteResp, From: n.id, To: m.From, Term: n.term, Granted: grant})
}

func (n *node) onVoteResp(m Message, send func(Message)) {
	if n.role != Candidate || m.Term != n.term || !m.Granted {
		return
	}
	n.votes[m.From] = true
	if len(n.votes) >= n.majority() {
		n.becomeLeader(send)
	}
}

// onApp applies a replication batch: consistency check against the
// previous entry, conflict truncation, append, commit advance (§5.3).
func (n *node) onApp(m Message, send func(Message)) {
	if m.Term < n.term {
		send(Message{Kind: MsgAppResp, From: n.id, To: m.From, Term: n.term, Success: false, MatchIndex: n.lastIndex()})
		return
	}
	if n.role != Follower {
		n.stepDown(m.Term)
	}
	n.leader = m.From
	n.resetTimer()

	if m.PrevLogIndex > n.lastIndex() || n.termAt(m.PrevLogIndex) != m.PrevLogTerm {
		// Log mismatch: hint the leader where this log could match.
		hint := n.lastIndex()
		if m.PrevLogIndex > 0 && m.PrevLogIndex-1 < hint {
			hint = m.PrevLogIndex - 1
		}
		send(Message{Kind: MsgAppResp, From: n.id, To: m.From, Term: n.term, Success: false, MatchIndex: hint})
		return
	}

	// Append, truncating any conflicting suffix first.
	for i, e := range m.Entries {
		if e.Index <= n.lastIndex() {
			if n.termAt(e.Index) == e.Term {
				continue // already have it
			}
			n.log = n.log[:e.Index-1]
		}
		n.log = append(n.log, m.Entries[i:]...)
		break
	}

	lastNew := m.PrevLogIndex + uint64(len(m.Entries))
	if m.Commit > n.commit {
		n.commit = min(m.Commit, lastNew)
	}
	send(Message{Kind: MsgAppResp, From: n.id, To: m.From, Term: n.term, Success: true, MatchIndex: lastNew})
}

func (n *node) onAppResp(m Message, send func(Message)) {
	if n.role != Leader || m.Term != n.term {
		return
	}
	if m.Success {
		if m.MatchIndex > n.match[m.From] {
			n.match[m.From] = m.MatchIndex
		}
		n.next[m.From] = n.match[m.From] + 1
		n.maybeCommit()
		// Follower catch-up: stream the next batch once this ack covers
		// everything sent, so each follower has one stream in flight.
		if n.next[m.From] <= n.lastIndex() && n.match[m.From] >= n.sent[m.From] {
			n.sendAppend(m.From, send)
		}
		return
	}
	// Rejected: back next off to the follower's hint and retry.
	n.next[m.From] = max(min(m.MatchIndex+1, n.next[m.From]-1), 1)
	n.sendAppend(m.From, send) // restarts the stream: sent drops to the retry
}
