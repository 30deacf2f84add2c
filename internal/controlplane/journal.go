package controlplane

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// Journal event names. A saga's lifetime in the journal is:
//
//	begin -> (intent -> done|failed)* -> committed | aborted | parked
//
// Intents are written *before* the step executes (write-ahead), so after a
// crash an intent without a matching done marks a step whose side effects
// are unknown — recovery resolves the ambiguity by querying the agents and
// the executor for ground truth.
const (
	EvBegin       = "begin"
	EvIntent      = "intent"
	EvDone        = "done"
	EvFailed      = "failed"
	EvCompensated = "compensated"
	EvCommitted   = "committed"
	EvAborted     = "aborted"
	EvParked      = "parked"
)

// Saga operations.
const (
	OpAttach = "attach"
	OpDetach = "detach"
)

// Attach saga steps (in execution order).
const (
	StepPlanPaths     = "plan-paths"
	StepStealMemory   = "steal-memory"
	StepAttachCompute = "attach-compute"
	StepExecAttach    = "exec-attach"
)

// Detach saga steps (in execution order).
const (
	StepExecDetach    = "exec-detach"
	StepDetachCompute = "detach-compute"
	StepDetachDonor   = "detach-donor"
	StepReleasePaths  = "release-paths"
)

// JournalEntry is one append-only record of saga progress. Entries carry
// enough payload for a restarted control plane to rebuild its records and
// finish or compensate every in-flight saga without the crashed process's
// memory.
type JournalEntry struct {
	Seq    uint64 `json:"seq"`
	SagaID string `json:"saga_id"`
	Op     string `json:"op"`              // attach | detach
	Event  string `json:"event"`           // begin | intent | done | ...
	Step   string `json:"step,omitempty"`  // step name for intent/done/failed/compensated
	Epoch  uint64 `json:"epoch,omitempty"` // command epoch for agent steps

	// Attach payload (begin), detach payload (begin: AttID+ExecID+hosts).
	Compute  string `json:"compute,omitempty"`
	Donor    string `json:"donor,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Channels int    `json:"channels,omitempty"`

	// Step payloads.
	NetID  uint16    `json:"net_id,omitempty"`  // plan-paths done
	Paths  [][]int64 `json:"paths,omitempty"`   // plan-paths done / detach begin
	ExecID string    `json:"exec_id,omitempty"` // exec-attach done / detach begin
	NUMA   int       `json:"numa,omitempty"`    // exec-attach done
	AttID  string    `json:"att_id,omitempty"`  // detach begin: agent correlation ID
	Err    string    `json:"err,omitempty"`     // failed/aborted/parked reason
	Parked []string  `json:"pending,omitempty"` // parked: steps still owed
}

// Journal is the saga write-ahead log. Implementations must make Append
// durable before returning (to the extent their backend can) and replay
// entries in append order.
type Journal interface {
	Append(e JournalEntry) error
	Entries() ([]JournalEntry, error)
}

// MemJournal is the in-memory journal backend: durable across a Service
// restart within one process (the unit tests' crash model), lost with the
// process.
//
// Records live in fixed-size blocks that are never reallocated, so an
// append never copies the log and the log holds at most one partly filled
// block of spare capacity.
type MemJournal struct {
	mu     sync.Mutex
	blocks [][]memEntry
}

// memJournalBlock is the number of records per MemJournal block.
const memJournalBlock = 256

// memEntry is how MemJournal holds a record. Most saga records are intent
// and done markers that carry only the header fields and name their op,
// event and step from the constants above; those are kept inline in 48
// bytes, with the names as indexes into journalNames, instead of a
// 240-byte JournalEntry. Any other record is kept whole behind a pointer.
type memEntry struct {
	seq, epoch      uint64
	sagaID          string
	op, event, step uint8
	whole           *JournalEntry // set when the record is not packed
}

// journalNames are the names a packed record can carry; index 0 is the
// empty step of a begin or end record.
var journalNames = [...]string{"",
	EvBegin, EvIntent, EvDone, EvFailed, EvCompensated, EvCommitted, EvAborted, EvParked,
	OpAttach, OpDetach,
	StepPlanPaths, StepStealMemory, StepAttachCompute, StepExecAttach,
	StepExecDetach, StepDetachCompute, StepDetachDonor, StepReleasePaths,
}

// nameIndex returns s's index in journalNames.
func nameIndex(s string) (uint8, bool) {
	for i, n := range journalNames {
		if n == s {
			return uint8(i), true
		}
	}
	return 0, false
}

// packEntry must test every non-header field of JournalEntry;
// TestMemJournalRoundTripsEveryField fails when one is missed.
func packEntry(e JournalEntry) memEntry {
	headerOnly := e.Compute == "" && e.Donor == "" && e.Bytes == 0 && e.Channels == 0 &&
		e.NetID == 0 && e.Paths == nil && e.ExecID == "" && e.NUMA == 0 &&
		e.AttID == "" && e.Err == "" && e.Parked == nil
	op, okOp := nameIndex(e.Op)
	event, okEvent := nameIndex(e.Event)
	step, okStep := nameIndex(e.Step)
	if !headerOnly || !okOp || !okEvent || !okStep {
		whole := e // copied here, so only records that are not packed reach the heap
		return memEntry{whole: &whole}
	}
	return memEntry{seq: e.Seq, epoch: e.Epoch, sagaID: e.SagaID, op: op, event: event, step: step}
}

func (m memEntry) unpack() JournalEntry {
	if m.whole != nil {
		return *m.whole
	}
	return JournalEntry{Seq: m.seq, SagaID: m.sagaID, Op: journalNames[m.op], Event: journalNames[m.event],
		Step: journalNames[m.step], Epoch: m.epoch}
}

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal { return &MemJournal{} }

// Append implements Journal.
func (m *MemJournal) Append(e JournalEntry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	last := len(m.blocks) - 1
	if last < 0 || len(m.blocks[last]) == memJournalBlock {
		m.blocks = append(m.blocks, make([]memEntry, 0, memJournalBlock))
		last++
	}
	m.blocks[last] = append(m.blocks[last], packEntry(e))
	return nil
}

// Entries implements Journal.
func (m *MemJournal) Entries() ([]JournalEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []JournalEntry
	if n := len(m.blocks); n > 0 {
		out = make([]JournalEntry, 0, (n-1)*memJournalBlock+len(m.blocks[n-1]))
	}
	for _, b := range m.blocks {
		for _, e := range b {
			out = append(out, e.unpack())
		}
	}
	return out, nil
}

// FileJournal is the durable journal backend: JSON lines appended to a
// file, synced per record (or group-committed, SetSyncEvery), replayable
// across process restarts (tfd -journal).
type FileJournal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer

	// Group commit (SetSyncEvery): records accumulate in the buffer and one
	// fsync commits the batch. syncEvery <= 1 is per-record write-through.
	syncEvery int
	maxDelay  time.Duration
	unsynced  int
	lastSync  time.Time
	appends   int64
	syncs     int64
}

// OpenFileJournal opens (creating if needed) an append-only journal file.
// If the file ends in a torn or corrupt tail (crash mid-write, bit rot),
// the tail past the last intact record is truncated away so subsequent
// appends land on a clean record boundary instead of gluing onto garbage.
func OpenFileJournal(path string) (*FileJournal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("controlplane: open journal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close() //nolint:errcheck
		return nil, fmt.Errorf("controlplane: read journal: %w", err)
	}
	if prefix, _ := journalValidPrefix(data); prefix < len(data) {
		if err := f.Truncate(int64(prefix)); err != nil {
			f.Close() //nolint:errcheck
			return nil, fmt.Errorf("controlplane: truncate torn journal tail: %w", err)
		}
	}
	return &FileJournal{path: path, f: f, w: bufio.NewWriter(f)}, nil
}

// journalValidPrefix scans JSON-lines data and returns the byte length of
// the longest prefix of intact, newline-terminated records along with the
// decoded entries. Everything past the prefix — a record without its
// newline (torn write) or a line that is not valid JSON (bit flip) — is the
// uncommitted tail.
func journalValidPrefix(data []byte) (int, []JournalEntry) {
	var entries []JournalEntry
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: record never got its newline
		}
		var e JournalEntry
		if err := json.Unmarshal(data[off:off+nl], &e); err != nil {
			break // corrupt line: stop at the committed prefix
		}
		entries = append(entries, e)
		off += nl + 1
	}
	return off, entries
}

// SetSyncEvery enables fsync group commit: Append syncs once per n records
// instead of after every one, with maxDelay capping how long a record may
// ride in an uncommitted batch (0 = count-only). n <= 1 restores the
// default per-record write-through. Batching trades the journal's tail —
// at most n-1 records past the last group commit are lost to a crash — for
// an n-fold cut in fsyncs; what does reach disk is always an intact
// record-boundary prefix of the append sequence (journalValidPrefix), so
// recovery semantics are unchanged.
func (j *FileJournal) SetSyncEvery(n int, maxDelay time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncEvery = n
	j.maxDelay = maxDelay
}

// SyncStats reports accepted appends and the fsyncs that committed them —
// the group-commit amortization ratio.
func (j *FileJournal) SyncStats() (appends, syncs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends, j.syncs
}

// Sync forces the current batch to stable storage regardless of the
// group-commit threshold.
func (j *FileJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// Append implements Journal: one JSON line per entry, synced to stable
// storage before returning (write-through default) or committed with the
// batch (SetSyncEvery) so a completed step is never silently reordered or
// torn — only, under group commit, knowingly traded off the tail.
func (j *FileJournal) Append(e JournalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return err
	}
	j.appends++
	j.unsynced++
	if j.unsynced < j.syncEvery && (j.maxDelay <= 0 || time.Since(j.lastSync) < j.maxDelay) {
		return nil // group commit: this record rides with the batch
	}
	return j.syncLocked()
}

// syncLocked flushes the buffered batch and fsyncs. Callers hold j.mu.
func (j *FileJournal) syncLocked() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.unsynced = 0
	j.syncs++
	j.lastSync = time.Now()
	return nil
}

// Entries implements Journal by re-reading the file and decoding the valid
// committed prefix: a torn final line (crash mid-write) or a corrupted line
// (bit flip) ends the replay there — never a panic, never garbage records.
func (j *FileJournal) Entries() ([]JournalEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, err
	}
	_, out := journalValidPrefix(data)
	return out, nil
}

// Close commits any open batch and closes the backing file.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.syncLocked(); err != nil {
		return err
	}
	return j.f.Close()
}

// ErrJournalCrash is the failure a CrashableJournal injects; the saga
// engine treats any journal append failure as a control-plane crash and
// halts mid-saga without compensating (the process is "dead" — recovery
// happens on the next start).
var ErrJournalCrash = errors.New("controlplane: injected crash (journal unavailable)")

// CrashableJournal wraps a journal and fails every append once the scripted
// crash point is reached — the fault-injection hook the crash-point
// recovery tests and the orchestrator-crash chaos scenario use to kill the
// control plane after an exact number of journal writes.
type CrashableJournal struct {
	mu        sync.Mutex
	inner     Journal
	appends   int
	failAfter int // fail the (failAfter+1)-th and later appends; <0 = never
}

// NewCrashableJournal wraps inner with crash injection disabled.
func NewCrashableJournal(inner Journal) *CrashableJournal {
	return &CrashableJournal{inner: inner, failAfter: -1}
}

// FailAfter arms the crash: the first n appends succeed, every later one
// fails with ErrJournalCrash. n = 0 fails the next append; n < 0 disarms.
func (c *CrashableJournal) FailAfter(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appends = 0
	c.failAfter = n
}

// Appends returns how many appends have been accepted since the last arm.
func (c *CrashableJournal) Appends() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appends
}

// Append implements Journal with crash injection.
func (c *CrashableJournal) Append(e JournalEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failAfter >= 0 && c.appends >= c.failAfter {
		return ErrJournalCrash
	}
	c.appends++
	return c.inner.Append(e)
}

// Entries implements Journal (reads are served even while "crashed": the
// restarted control plane replays from the same backend).
func (c *CrashableJournal) Entries() ([]JournalEntry, error) { return c.inner.Entries() }

// CountingJournal wraps a journal and tallies accepted appends and their
// encoded size (JSON line + newline, the FileJournal wire format), so load
// harnesses can report journal growth without a file backend. Failed
// appends are not counted.
type CountingJournal struct {
	mu      sync.Mutex
	inner   Journal
	entries int64
	bytes   int64
}

// NewCountingJournal wraps inner.
func NewCountingJournal(inner Journal) *CountingJournal {
	return &CountingJournal{inner: inner}
}

// Append implements Journal, counting only appends the inner journal
// accepted.
func (c *CountingJournal) Append(e JournalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err := c.inner.Append(e); err != nil {
		return err
	}
	c.mu.Lock()
	c.entries++
	c.bytes += int64(len(data)) + 1
	c.mu.Unlock()
	return nil
}

// Entries implements Journal.
func (c *CountingJournal) Entries() ([]JournalEntry, error) { return c.inner.Entries() }

// Stats returns accepted appends and their encoded byte size.
func (c *CountingJournal) Stats() (entries, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries, c.bytes
}
