package controlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"thymesisflow/internal/agent"
)

// Transport carries configuration commands and ground-truth queries from
// the control plane to the per-host agents. Sends can fail transiently
// (the wire between orchestrator and agent is lossy); the saga engine
// retries transient failures with the same command epoch, so agents can
// deduplicate the replays.
type Transport interface {
	// Send delivers one command to the named host's agent.
	Send(host, token string, cmd agent.Command) error
	// Query returns the agent's ground-truth status (incarnation and
	// materialized configuration).
	Query(host string) (agent.Status, error)
	// Reach fails exactly when Query would, without building the agent's
	// status: the check for callers that only need to know the agent can
	// be reached.
	Reach(host string) error
	// Hosts lists the reachable agent hosts, sorted.
	Hosts() []string
}

// ErrAgentUnknown is returned for sends/queries to hosts with no agent.
var ErrAgentUnknown = errors.New("controlplane: no agent registered for host")

// errTransient marks a transport failure as retryable: the command may or
// may not have reached the agent, and re-sending it (same epoch) is safe.
type errTransient struct{ err error }

func (e errTransient) Error() string { return e.err.Error() }
func (e errTransient) Unwrap() error { return e.err }

// Transient wraps err as a retryable transport failure.
func Transient(err error) error { return errTransient{err: err} }

// IsTransient reports whether err is a retryable transport failure (as
// opposed to a permanent rejection by the agent or executor).
func IsTransient(err error) bool {
	var t errTransient
	return errors.As(err, &t)
}

// DirectTransport is the in-process, reliable transport: a registry of
// agents reached by direct call. It is the default transport of a Service
// and the inner transport a FaultyTransport wraps.
type DirectTransport struct {
	mu     sync.Mutex
	agents map[string]*agent.Agent
}

// NewDirectTransport returns an empty agent registry.
func NewDirectTransport() *DirectTransport {
	return &DirectTransport{agents: make(map[string]*agent.Agent)}
}

// Register adds an agent to the registry.
func (d *DirectTransport) Register(a *agent.Agent) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.agents[a.Host()] = a
}

// Agent returns the registered agent for a host.
func (d *DirectTransport) Agent(host string) (*agent.Agent, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.agents[host]
	return a, ok
}

// reach returns the registered agent for a host, or ErrAgentUnknown.
func (d *DirectTransport) reach(host string) (*agent.Agent, error) {
	a, ok := d.Agent(host)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrAgentUnknown, host)
	}
	return a, nil
}

// Send implements Transport.
func (d *DirectTransport) Send(host, token string, cmd agent.Command) error {
	a, err := d.reach(host)
	if err != nil {
		return err
	}
	return a.Apply(token, cmd)
}

// Query implements Transport.
func (d *DirectTransport) Query(host string) (agent.Status, error) {
	a, err := d.reach(host)
	if err != nil {
		return agent.Status{}, err
	}
	return a.Status(), nil
}

// Reach implements Transport.
func (d *DirectTransport) Reach(host string) error {
	_, err := d.reach(host)
	return err
}

// Hosts implements Transport.
func (d *DirectTransport) Hosts() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.agents))
	for h := range d.agents {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// AgentList returns the registered agents in host order, so the service can
// wire cross-cutting concerns (the saga event log) into every agent.
func (d *DirectTransport) AgentList() []*agent.Agent {
	out := make([]*agent.Agent, 0)
	for _, h := range d.Hosts() {
		if a, ok := d.Agent(h); ok {
			out = append(out, a)
		}
	}
	return out
}

// TransportFaults configures the seeded fault injection of a
// FaultyTransport, in the style of phy.FaultConfig: per-send
// probabilities, drawn from one private PRNG so a campaign reproduces
// from its seed alone.
type TransportFaults struct {
	// DropProb loses the command entirely: the agent never sees it and
	// the sender gets a transient timeout.
	DropProb float64
	// DupProb delivers the command twice (the duplicate models a network
	// replay the agent must deduplicate).
	DupProb float64
	// AmbiguousProb delivers the command but reports a transient failure
	// to the sender — the classic "did my write land?" ambiguity that
	// forces idempotent retries.
	AmbiguousProb float64
	// Seed seeds the transport's private PRNG.
	Seed int64
}

// TransportStats counts what a FaultyTransport actually did.
// PartitionDrops is omitempty so reports from scenarios that never
// partition stay byte-identical to earlier PRs.
type TransportStats struct {
	Sends          int64 `json:"sends"`
	Drops          int64 `json:"drops"`
	Dups           int64 `json:"dups"`
	Ambiguous      int64 `json:"ambiguous"`
	Crashes        int64 `json:"crashes"`
	PartitionDrops int64 `json:"partition_drops,omitempty"`
}

// FaultyTransport wraps a DirectTransport with seeded fault injection:
// dropped, duplicated, and ambiguously-failed commands, plus agent
// crash-restarts. It is the control-plane twin of phy.FaultSchedule —
// deterministic from its seed, so chaos campaign reports are
// byte-identical per seed. Queries are reliable (the reconciliation loop
// needs ground truth; a lossy query channel would only add retries, not
// change the invariants).
type FaultyTransport struct {
	inner  *DirectTransport
	faults TransportFaults

	mu  sync.Mutex
	rng *rand.Rand
	// failNext scripts deterministic failures: the next n sends to a host
	// are dropped regardless of probabilities (for targeted tests).
	failNext map[string]int
	// cuts holds directed [source, destination] partition cuts. The base
	// transport sends with source DefaultSource; WithSource derives a view
	// carrying another identity, so a chaos scenario can sever one
	// control-plane node from one agent while its peers still get through.
	cuts map[[2]string]bool

	sends          atomic.Int64
	drops          atomic.Int64
	dups           atomic.Int64
	ambiguous      atomic.Int64
	crashes        atomic.Int64
	partitionDrops atomic.Int64
}

// DefaultSource is the source identity of sends through the base
// FaultyTransport (views made with WithSource carry their own).
const DefaultSource = "cp"

// ErrTransportDrop is the transient failure a dropped or ambiguous send
// surfaces to the saga engine.
var ErrTransportDrop = errors.New("controlplane: transport timeout (command may not have been delivered)")

// NewFaultyTransport wraps a direct transport with seeded fault injection.
func NewFaultyTransport(inner *DirectTransport, faults TransportFaults) *FaultyTransport {
	return &FaultyTransport{
		inner:    inner,
		faults:   faults,
		rng:      rand.New(rand.NewSource(faults.Seed)),
		failNext: make(map[string]int),
		cuts:     make(map[[2]string]bool),
	}
}

// Partition cuts the link between a and b symmetrically: sends and queries
// in both directions fail as transient partition drops until healed.
// Either endpoint may be a source identity (a control-plane node) or a
// destination host (an agent).
func (f *FaultyTransport) Partition(a, b string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts[[2]string{a, b}] = true
	f.cuts[[2]string{b, a}] = true
}

// PartitionOneWay cuts only traffic flowing from -> to (asymmetric
// partition: replies and reverse traffic still pass).
func (f *FaultyTransport) PartitionOneWay(from, to string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts[[2]string{from, to}] = true
}

// HealPartition removes cuts between a and b in both directions.
func (f *FaultyTransport) HealPartition(a, b string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.cuts, [2]string{a, b})
	delete(f.cuts, [2]string{b, a})
}

// HealAllPartitions removes every cut.
func (f *FaultyTransport) HealAllPartitions() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts = make(map[[2]string]bool)
}

func (f *FaultyTransport) partitioned(src, dst string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cuts[[2]string{src, dst}]
}

// WithSource returns a Transport view whose sends and queries carry the
// given source identity for partition matching. Fault probabilities,
// counters, and the PRNG are shared with the base transport.
func (f *FaultyTransport) WithSource(src string) Transport {
	return &sourcedTransport{f: f, src: src}
}

// sourcedTransport is a FaultyTransport view with a fixed source identity.
type sourcedTransport struct {
	f   *FaultyTransport
	src string
}

func (s *sourcedTransport) Send(host, token string, cmd agent.Command) error {
	return s.f.sendFrom(s.src, host, token, cmd)
}
func (s *sourcedTransport) Query(host string) (agent.Status, error) {
	return s.f.queryFrom(s.src, host)
}
func (s *sourcedTransport) Reach(host string) error { return s.f.reachFrom(s.src, host) }
func (s *sourcedTransport) Hosts() []string         { return s.f.Hosts() }

// Register delegates to the inner registry so Service.RegisterAgent works
// transparently through a faulty transport.
func (f *FaultyTransport) Register(a *agent.Agent) { f.inner.Register(a) }

// FailNext scripts the next n sends to host to be dropped (transient
// failure, command not delivered), ahead of any probabilistic faults.
func (f *FaultyTransport) FailNext(host string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNext[host] = n
}

// CrashAgent crash-restarts the named agent immediately, losing its
// volatile state.
func (f *FaultyTransport) CrashAgent(host string) error {
	a, ok := f.inner.Agent(host)
	if !ok {
		return fmt.Errorf("%w %q", ErrAgentUnknown, host)
	}
	a.Restart()
	f.crashes.Add(1)
	return nil
}

// Send implements Transport with fault injection, using DefaultSource as
// the partition-matching source identity.
func (f *FaultyTransport) Send(host, token string, cmd agent.Command) error {
	return f.sendFrom(DefaultSource, host, token, cmd)
}

func (f *FaultyTransport) sendFrom(src, host, token string, cmd agent.Command) error {
	f.sends.Add(1)
	if err := f.cut(src, host); err != nil {
		f.drops.Add(1)
		return err
	}
	f.mu.Lock()
	if n := f.failNext[host]; n > 0 {
		f.failNext[host] = n - 1
		f.mu.Unlock()
		f.drops.Add(1)
		return Transient(fmt.Errorf("%w (scripted, host %s)", ErrTransportDrop, host))
	}
	drop := f.faults.DropProb > 0 && f.rng.Float64() < f.faults.DropProb
	dup := f.faults.DupProb > 0 && f.rng.Float64() < f.faults.DupProb
	ambig := f.faults.AmbiguousProb > 0 && f.rng.Float64() < f.faults.AmbiguousProb
	f.mu.Unlock()

	if drop {
		f.drops.Add(1)
		return Transient(fmt.Errorf("%w (host %s)", ErrTransportDrop, host))
	}
	err := f.inner.Send(host, token, cmd)
	if err != nil {
		return err // permanent agent rejection passes through unwrapped
	}
	if dup {
		f.dups.Add(1)
		f.inner.Send(host, token, cmd) //nolint:errcheck // duplicate delivery; agent dedupes
	}
	if ambig {
		f.ambiguous.Add(1)
		return Transient(fmt.Errorf("%w (delivered, ack lost, host %s)", ErrTransportDrop, host))
	}
	return nil
}

// Query implements Transport (reliable except across a partition cut — a
// severed control-plane node cannot see ground truth either).
func (f *FaultyTransport) Query(host string) (agent.Status, error) {
	return f.queryFrom(DefaultSource, host)
}

func (f *FaultyTransport) queryFrom(src, host string) (agent.Status, error) {
	if err := f.cut(src, host); err != nil {
		return agent.Status{}, err
	}
	return f.inner.Query(host)
}

// Reach implements Transport with Query's partition check.
func (f *FaultyTransport) Reach(host string) error {
	return f.reachFrom(DefaultSource, host)
}

func (f *FaultyTransport) reachFrom(src, host string) error {
	if err := f.cut(src, host); err != nil {
		return err
	}
	return f.inner.Reach(host)
}

// cut counts and returns the transient failure of a send, query or reach
// across a partition cut, or nil when src can see host.
func (f *FaultyTransport) cut(src, host string) error {
	if !f.partitioned(src, host) {
		return nil
	}
	f.partitionDrops.Add(1)
	return Transient(fmt.Errorf("%w (partitioned, %s -> %s)", ErrTransportDrop, src, host))
}

// Hosts implements Transport.
func (f *FaultyTransport) Hosts() []string { return f.inner.Hosts() }

// AgentList delegates to the inner registry.
func (f *FaultyTransport) AgentList() []*agent.Agent { return f.inner.AgentList() }

// Stats returns the injection counters.
func (f *FaultyTransport) Stats() TransportStats {
	return TransportStats{
		Sends:          f.sends.Load(),
		Drops:          f.drops.Load(),
		Dups:           f.dups.Load(),
		Ambiguous:      f.ambiguous.Load(),
		Crashes:        f.crashes.Load(),
		PartitionDrops: f.partitionDrops.Load(),
	}
}
