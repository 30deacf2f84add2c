package raft

// Storage persists a node's Raft state: current term, vote, and the log.
// Implementations must make SaveState/AppendEntries/TruncateEntries
// durable before returning — the protocol sends messages that promise the
// persisted state (§5.1). Load restores everything after a restart.
type Storage interface {
	SaveState(term uint64, votedFor string) error
	AppendEntries(entries []Entry) error
	TruncateEntries(from uint64) error // drop entries with Index >= from
	Load() (term uint64, votedFor string, entries []Entry, err error)
}

// MemStorage keeps Raft state in memory. It survives a node Restart inside
// a Cluster (the storage object is retained) but not process death; the
// deterministic tests, chaos scenarios and replay runs use it.
type MemStorage struct {
	term     uint64
	votedFor string
	log      []Entry
}

// NewMemStorage returns an empty in-memory store.
func NewMemStorage() *MemStorage { return &MemStorage{} }

// SaveState implements Storage.
func (m *MemStorage) SaveState(term uint64, votedFor string) error {
	m.term, m.votedFor = term, votedFor
	return nil
}

// AppendEntries implements Storage.
func (m *MemStorage) AppendEntries(entries []Entry) error {
	m.log = append(m.log, entries...)
	return nil
}

// TruncateEntries implements Storage.
func (m *MemStorage) TruncateEntries(from uint64) error {
	for len(m.log) > 0 && m.log[len(m.log)-1].Index >= from {
		m.log = m.log[:len(m.log)-1]
	}
	return nil
}

// Load implements Storage.
func (m *MemStorage) Load() (uint64, string, []Entry, error) {
	out := make([]Entry, len(m.log))
	copy(out, m.log)
	return m.term, m.votedFor, out, nil
}
