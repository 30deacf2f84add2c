package core

import (
	"fmt"
	"io"
	"sort"

	"thymesisflow/internal/endpoint"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/llc"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/sim/shard"
)

// Cluster is a rack of hosts joined by ThymesisFlow links. It owns the
// attach/detach lifecycle.
type Cluster struct {
	// K is the simulation kernel — with sharding enabled, shard 0's kernel.
	// Components must be driven from the kernel of the host that owns them
	// (Host.K); K remains correct for single-kernel clusters and for
	// processes running on shard-0 hosts.
	K *sim.Kernel

	hosts       map[string]*Host
	hostOrder   []string
	nextNetID   uint16
	nextAttach  int
	attachments map[string]*Attachment

	// Faults configures error injection on newly created links.
	Faults phy.FaultConfig

	// lat is the cluster-wide latency-attribution sink (nil = disabled).
	lat *latency.Sink

	// registries are the RegisterMetrics targets and flight the fabric
	// flight recorder (nil = disabled); both receive the instruments of
	// every host and attachment added later.
	registries []registration
	flight     *flightRecorder

	// Sharded execution (nil group = classic single-kernel cluster; the
	// single-kernel code paths are byte-identical to the pre-sharding ones).
	group     *shard.Group
	hostShard map[string]int                    // host name -> shard index
	ctrl      map[[2]int]*shard.Conduit[func()] // eager control-plane conduit mesh
	nextShard int
}

// NewCluster returns an empty cluster on a fresh kernel.
func NewCluster() *Cluster {
	return NewClusterShards(1)
}

// NewClusterShards returns a cluster partitioned over n simulation kernels,
// advanced in conservative lookahead windows of phy.SerdesCrossing — the
// minimum one-way crossing of any link (see internal/sim/shard and
// docs/PARALLEL_SIM.md). Hosts are placed round-robin over shards in
// registration order. n <= 1 is the classic single-kernel cluster.
func NewClusterShards(n int) *Cluster {
	c := &Cluster{
		hosts:       make(map[string]*Host),
		attachments: make(map[string]*Attachment),
		nextNetID:   1,
	}
	if n <= 1 {
		c.K = sim.NewKernel()
		return c
	}
	c.group = shard.NewGroup(n, phy.SerdesCrossing)
	c.K = c.group.Shard(0).Kernel()
	c.hostShard = make(map[string]int)
	// Control-plane conduit mesh, created eagerly so conduit IDs (part of
	// the deterministic merge order) don't depend on which lifecycle event
	// happens to cross shards first.
	c.ctrl = make(map[[2]int]*shard.Conduit[func()])
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				c.ctrl[[2]int{i, j}] = shard.Connect(c.group, c.group.Shard(i), c.group.Shard(j), phy.SerdesCrossing, call)
			}
		}
	}
	return c
}

// Shards reports the number of simulation kernels the cluster runs on.
func (c *Cluster) Shards() int {
	if c.group == nil {
		return 1
	}
	return c.group.Len()
}

// ShardOf reports which shard a host lives on (always 0 when unsharded).
func (c *Cluster) ShardOf(host string) int {
	if c.hostShard == nil {
		return 0
	}
	return c.hostShard[host]
}

// Kernels returns the cluster's simulation kernels in shard order (length 1
// when unsharded). Tests attach one trace ring per kernel through this.
func (c *Cluster) Kernels() []*sim.Kernel {
	if c.group == nil {
		return []*sim.Kernel{c.K}
	}
	out := make([]*sim.Kernel, c.group.Len())
	for i := range out {
		out[i] = c.group.Shard(i).Kernel()
	}
	return out
}

// ShardHealth reports the shard runtime's health counters — windows
// executed, per-shard event split, barrier stall, conduit flush depth.
// ok is false when the cluster runs on a single kernel.
func (c *Cluster) ShardHealth() (shard.Health, bool) {
	if c.group == nil {
		return shard.Health{}, false
	}
	return c.group.Health(), true
}

// flightRunLimit bounds a recorded Run(): the sampling grid needs a finite
// limit to step toward, and stepping stops at queue drain exactly like an
// unbounded run would.
const flightRunLimit = sim.Time(1) << 62

// Run advances the cluster until all queues drain, returning the final
// virtual time. Sharded clusters step their kernels in conservative
// windows; unsharded ones run the kernel directly.
func (c *Cluster) Run() sim.Time {
	if c.flight != nil {
		return c.runSampled(flightRunLimit)
	}
	if c.group == nil {
		return c.K.Run()
	}
	return c.group.Run()
}

// RunUntil advances the cluster through virtual time limit (see
// sim.Kernel.RunUntil for clock semantics). With the flight recorder
// enabled the advance is chopped into sampling-grid steps; the event chain
// is identical either way.
func (c *Cluster) RunUntil(limit sim.Time) sim.Time {
	if c.flight != nil {
		return c.runSampled(limit)
	}
	return c.runUntil(limit)
}

func (c *Cluster) runUntil(limit sim.Time) sim.Time {
	if c.group == nil {
		return c.K.RunUntil(limit)
	}
	return c.group.RunUntil(limit)
}

// runSampled advances to limit in flight-recorder tick steps, sampling every
// registered series at each grid instant the run reaches. Sampling happens
// between windows, while all shards are parked at the grid time, so it never
// races the parallel runtime and observes a globally consistent state.
// Because sampling schedules no events, a recorded run executes the exact
// event chain of an unrecorded one — phases that end at queue drain (chaos
// read-back) keep their timing — and because grid instants are absolute
// multiples of the tick, the sample set is independent of shard count.
// Stepping stops at queue drain, matching RunUntil's early return.
func (c *Cluster) runSampled(limit sim.Time) sim.Time {
	fr := c.flight
	now := c.K.Now()
	for {
		next := (now/fr.tick + 1) * fr.tick
		if next > limit {
			now = c.runUntil(limit)
			break
		}
		now = c.runUntil(next)
		if now < next {
			// Drained (or stopped) short of the grid instant.
			break
		}
		fr.sampleAll(int64(next))
		if !c.pendingEvents() {
			break
		}
	}
	// One final sample at the phase boundary (queue drain or the limit):
	// off-grid, but the virtual end time is shard-invariant, and it captures
	// terminal transitions — a port fencing itself moments before the run
	// drains — that land after the last grid instant.
	fr.sampleAll(int64(now))
	return now
}

// pendingEvents reports whether any shard kernel still has live events
// queued. Only meaningful while the cluster is quiescent.
func (c *Cluster) pendingEvents() bool {
	for _, k := range c.Kernels() {
		if _, ok := k.NextAt(); ok {
			return true
		}
	}
	return false
}

// call runs a control-plane callback that crossed shards.
func call(fn func()) { fn() }

// injectFrom runs fn on shard dst, ordered after the current instant on
// shard src plus the group lookahead — the cross-shard control-plane path
// (link-down fan-out, detach rollback). Same-shard calls run synchronously,
// preserving the single-kernel behavior exactly.
func (c *Cluster) injectFrom(src, dst int, fn func()) {
	if src == dst {
		fn()
		return
	}
	cd := c.ctrl[[2]int{src, dst}]
	cd.Send(c.group.Shard(src).Kernel().Now()+c.group.Lookahead(), fn)
}

// AddHost creates and registers a host. Sharded clusters place hosts
// round-robin over the shards in registration order; a host's components
// all live on its shard's kernel (Host.K).
func (c *Cluster) AddHost(cfg HostConfig) (*Host, error) {
	if _, dup := c.hosts[cfg.Name]; dup {
		return nil, fmt.Errorf("core: host %q already exists", cfg.Name)
	}
	k := c.K
	si := 0
	if c.group != nil {
		si = c.nextShard % c.group.Len()
		c.nextShard++
		k = c.group.Shard(si).Kernel()
	}
	h, err := NewHost(k, cfg)
	if err != nil {
		return nil, err
	}
	if c.lat != nil {
		h.Compute.SetLatencySink(c.lat)
	}
	c.hosts[cfg.Name] = h
	c.hostOrder = append(c.hostOrder, cfg.Name)
	if c.hostShard != nil {
		c.hostShard[cfg.Name] = si
	}
	if c.observed() {
		c.hostProbes(h, c.publish)
	}
	return h, nil
}

// EnableLatency switches on per-stage latency attribution for every compute
// endpoint in the cluster (current and future hosts) and returns the shared
// sink. Subsequent calls return the same sink. Attribution costs one record
// allocation per transaction while enabled; a cluster that never calls this
// stays on the zero-overhead path.
func (c *Cluster) EnableLatency() *latency.Sink {
	if c.lat == nil {
		c.lat = latency.NewSink()
		for _, h := range c.hosts {
			h.Compute.SetLatencySink(c.lat)
		}
	}
	return c.lat
}

// LatencySink returns the cluster's attribution sink (nil when disabled).
func (c *Cluster) LatencySink() *latency.Sink { return c.lat }

// AttachmentBreakdown pairs one attachment with its latency breakdown.
type AttachmentBreakdown struct {
	Attachment string            `json:"attachment"`
	Compute    string            `json:"compute_host"`
	Donor      string            `json:"donor_host"`
	Breakdown  latency.Breakdown `json:"breakdown"`
}

// LatencyReport is the cluster-wide attribution snapshot the control plane
// serves on /v1/latency.
type LatencyReport struct {
	Enabled     bool                  `json:"enabled"`
	Overall     latency.Breakdown     `json:"overall"`
	Attachments []AttachmentBreakdown `json:"attachments,omitempty"`
}

// LatencyReport joins the sink's per-flow breakdowns with the attachments
// owning those flows (sorted by attachment ID). With attribution disabled it
// returns Enabled=false and empty breakdowns.
func (c *Cluster) LatencyReport() LatencyReport {
	if c.lat == nil {
		return LatencyReport{}
	}
	rep := LatencyReport{Enabled: true, Overall: c.lat.Snapshot()}
	for _, id := range c.attachmentIDs() {
		att := c.attachments[id]
		b, ok := c.lat.FlowSnapshot(att.NetworkID)
		if !ok {
			continue
		}
		rep.Attachments = append(rep.Attachments, AttachmentBreakdown{
			Attachment: att.ID,
			Compute:    att.ComputeHost,
			Donor:      att.DonorHost,
			Breakdown:  b,
		})
	}
	return rep
}

// Host returns a registered host.
func (c *Cluster) Host(name string) (*Host, error) {
	h, ok := c.hosts[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown host %q", name)
	}
	return h, nil
}

// Hosts returns hosts in registration order.
func (c *Cluster) Hosts() []*Host {
	out := make([]*Host, 0, len(c.hostOrder))
	for _, n := range c.hostOrder {
		out = append(out, c.hosts[n])
	}
	return out
}

// AttachState is the lifecycle state of an attachment. State transitions
// are driven entirely in virtual time, so campaigns observing them are
// deterministic.
type AttachState int

// Attachment lifecycle states.
const (
	// StateActive: the datapath is up and serving Load/Store traffic.
	StateActive AttachState = iota
	// StateDraining: a graceful detach has begun; new requests are rejected
	// while outstanding transactions complete.
	StateDraining
	// StateLinkDown: the LLC escalated (replay/probe exhaustion); the
	// datapath is fenced and outstanding transactions were faulted.
	StateLinkDown
	// StateDetached: teardown completed; the attachment no longer exists in
	// the cluster (the state survives on retained pointers for inspection).
	StateDetached
)

var attachStateNames = [...]string{"active", "draining", "link-down", "detached"}

// String returns the lower-case state name used in control-plane payloads.
func (s AttachState) String() string {
	if int(s) < len(attachStateNames) {
		return attachStateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrDetaching is the error outstanding transactions complete with when a
// forced detach fences the datapath underneath them.
var ErrDetaching = fmt.Errorf("core: attachment detaching")

// Attachment is one live disaggregated-memory binding: Bytes of the donor's
// memory appear as the CPU-less NUMA node Node on the compute host.
type Attachment struct {
	ID          string
	ComputeHost string
	DonorHost   string
	Bytes       int64
	Channels    int
	Bonded      bool
	NetworkID   uint16

	// Node is the CPU-less NUMA node on the compute host backed by the
	// donor's memory.
	Node mem.NodeID
	// Backend prices accesses through the ThymesisFlow datapath.
	Backend *endpoint.RemoteBackend
	// Region is the pinned donor memory.
	Region *endpoint.StolenRegion
	// Sections are the hotplug section bases on the compute host.
	Sections []uint64
	// DeviceBase is the first device-internal address of the mapping (for
	// functional Load/Store through the transaction datapath).
	DeviceBase uint64

	computePorts []*llc.Port
	state        AttachState
}

// State returns the attachment's lifecycle state.
func (a *Attachment) State() AttachState { return a.state }

// Ports returns the compute-side LLC ports, one per channel. Campaign
// engines reach through them (Port.Channel, Port.Peer) to install fault
// schedules and read protocol stats.
func (a *Attachment) Ports() []*llc.Port { return a.computePorts }

// TrafficStats aggregates an attachment's observable datapath counters.
type TrafficStats struct {
	// Transaction-path counters (functional Load/Store traffic).
	TxTransactions int64 `json:"tx_transactions"`
	TxFrames       int64 `json:"tx_frames"`
	TxReplayed     int64 `json:"tx_replayed"`
	RxCRCErrors    int64 `json:"rx_crc_errors"`
	CreditStalls   int64 `json:"credit_stalls"`
	// Analytic-path counters (workload traffic priced via the backend).
	BackendBytes int64 `json:"backend_bytes"`
	// HBM cache counters (zero when the layer is disabled).
	HBMHits   int64 `json:"hbm_hits"`
	HBMMisses int64 `json:"hbm_misses"`
}

// Traffic returns the attachment's current counters.
func (a *Attachment) Traffic() TrafficStats {
	var ts TrafficStats
	for _, p := range a.computePorts {
		st := p.Stats()
		ts.TxTransactions += st.TxTransactions
		ts.TxFrames += st.TxFrames
		ts.TxReplayed += st.TxReplayed
		ts.RxCRCErrors += st.RxCRCErrors
		ts.CreditStalls += st.CreditStalls
	}
	for _, pipe := range a.Backend.Channels() {
		ts.BackendBytes += pipe.TotalBytes()
	}
	ts.HBMHits, ts.HBMMisses = a.Backend.HBMStats()
	return ts
}

// AttachSpec parameterizes an attachment.
type AttachSpec struct {
	ComputeHost string
	DonorHost   string
	Bytes       int64 // rounded up to whole sections
	Channels    int   // 1 = single-disaggregated, 2 = bonding-disaggregated
	// Backing allocates a real byte store at the donor so functional
	// Load/Store through the datapath verifies data integrity. Keep false
	// for large timing-only attachments.
	Backing bool
	// HBMCacheBytes, when positive, enables the Section VII hardware
	// caching layer on the compute endpoint: that much on-card HBM caches
	// remote lines in front of the network.
	HBMCacheBytes int64
	// LLC overrides the protocol parameters of newly created links (nil
	// selects llc.DefaultConfig). Campaigns shrink the credit window or the
	// escalation budget to provoke starvation and link-down paths quickly.
	LLC *llc.Config
}

// Attach performs the full software-defined attachment: donor-side steal
// (C1/PASID), per-section RMMU mappings, routing-layer flow with optional
// bonding, LLC/phy channel bring-up, hotplug probe+online, and CPU-less
// NUMA node creation on the compute host.
func (c *Cluster) Attach(spec AttachSpec) (*Attachment, error) {
	if spec.ComputeHost == spec.DonorHost {
		return nil, fmt.Errorf("core: compute and donor host are both %q", spec.ComputeHost)
	}
	ch, err := c.Host(spec.ComputeHost)
	if err != nil {
		return nil, err
	}
	dh, err := c.Host(spec.DonorHost)
	if err != nil {
		return nil, err
	}
	if spec.Channels <= 0 {
		spec.Channels = 1
	}
	if spec.Bytes <= 0 {
		return nil, fmt.Errorf("core: attach of %d bytes", spec.Bytes)
	}
	secSize := ch.Cfg.SectionSize
	sections := int((spec.Bytes + secSize - 1) / secSize)
	bytes := int64(sections) * secSize

	// Donor side: pin memory and register the PASID with the C1 endpoint.
	if free := dh.FreeLocalBytes(); free < bytes {
		return nil, fmt.Errorf("core: donor %q has %d bytes free, need %d", dh.Name, free, bytes)
	}
	donorBase := dh.nextDonorBase
	region, err := dh.Memory.Steal("tf-agent", donorBase, bytes, spec.Backing)
	if err != nil {
		return nil, err
	}
	dh.nextDonorBase += uint64(bytes)
	// Account the pinned memory against the donor's local capacity: stolen
	// memory is no longer available to the donor's own allocator.
	donorNode := dh.Mem.Node(dh.LocalNode(0))
	donorNode.Capacity -= bytes

	id := fmt.Sprintf("att-%d", c.nextAttach)
	c.nextAttach++
	netID := c.nextNetID
	c.nextNetID++
	bonded := spec.Channels > 1

	att := &Attachment{
		ID:          id,
		ComputeHost: ch.Name,
		DonorHost:   dh.Name,
		Bytes:       bytes,
		Channels:    spec.Channels,
		Bonded:      bonded,
		NetworkID:   netID,
		Region:      region,
	}

	// Network bring-up: one LLC/phy link per channel. When compute and
	// donor live on different shards the link is the shard boundary: each
	// direction's channel runs on its transmit side's kernel and deliveries
	// cross on a dedicated conduit, so the wire latency (>= the group
	// lookahead) hides the synchronization window.
	csi, dsi := c.ShardOf(ch.Name), c.ShardOf(dh.Name)
	llcCfg := llc.DefaultConfig()
	if spec.LLC != nil {
		llcCfg = *spec.LLC
	}
	for i := 0; i < spec.Channels; i++ {
		f := c.Faults
		f.Seed += int64(i) * 7919
		name := fmt.Sprintf("%s-%s.ch%d", ch.Name, dh.Name, i)
		link := phy.NewLinkSplit(ch.K, dh.K, name, phy.LanesPerChannel, phy.SerdesCrossing, f)
		if csi != dsi {
			cs, ds := c.group.Shard(csi), c.group.Shard(dsi)
			link.AtoB.SetRemote(shard.Connect(c.group, cs, ds, phy.SerdesCrossing, link.AtoB.Deliver))
			link.BtoA.SetRemote(shard.Connect(c.group, ds, cs, phy.SerdesCrossing, link.BtoA.Deliver))
		}
		cp, mp := llc.NewPairOn(ch.K, dh.K, fmt.Sprintf("%s.llc%d", id, i), link, llcCfg)
		ch.Compute.AttachPort(cp)
		dh.Memory.AttachPort(mp)
		// Either side escalating fences the whole attachment: outstanding
		// transactions are faulted instead of hanging, and the state is
		// surfaced through the control plane. The donor-side escalation
		// reaches the compute side after one wire crossing — as a
		// timestamped control message when the hosts live on different
		// shards, and as a same-delay scheduled event on one kernel, so the
		// notification instant is identical at every shard count.
		cp.OnLinkDown = func() { c.onLinkDown(ch, cp) }
		mp.OnLinkDown = func() {
			if dsi != csi {
				c.injectFrom(dsi, csi, func() { c.onLinkDown(ch, cp) })
				return
			}
			dh.K.Schedule(phy.SerdesCrossing, func() { c.onLinkDown(ch, cp) })
		}
		att.computePorts = append(att.computePorts, cp)
	}
	if err := ch.Compute.Router().AddFlow(netID, att.computePorts...); err != nil {
		c.rollbackDonor(dh, region, bytes)
		return nil, err
	}

	// Compute side: map one RMMU section per hotplug section.
	firstSection := ch.takeSections(sections)
	att.DeviceBase = uint64(firstSection) * uint64(secSize)
	for i := 0; i < sections; i++ {
		sec := firstSection + i
		remoteBase := region.Base + uint64(i)*uint64(secSize)
		if err := ch.Compute.RMMU().Map(sec, remoteBase, netID, bonded); err != nil {
			for j := 0; j < i; j++ {
				ch.Compute.RMMU().Unmap(firstSection + j) //nolint:errcheck
			}
			ch.releaseSections(firstSection, sections)
			ch.Compute.Router().RemoveFlow(netID) //nolint:errcheck
			c.rollbackDonor(dh, region, bytes)
			return nil, err
		}
	}

	// OS side: CPU-less NUMA node + hotplug probe/online per section. The
	// analytic backend is compute-side bandwidth pricing; it reserves donor
	// C1 capacity synchronously, which is only possible when both hosts
	// share a kernel. Across shards it prices against a private C1 ceiling
	// instead (same rate, no cross-attachment donor contention — see
	// docs/PARALLEL_SIM.md for this modelling divergence).
	donorC1 := dh.Memory.C1Pipe()
	if csi != dsi {
		donorC1 = nil
	}
	att.Backend = endpoint.NewRemoteBackend(ch.K, id+".backend", spec.Channels,
		donorC1, dh.Cfg.DRAMLatency)
	if spec.HBMCacheBytes > 0 {
		hc := endpoint.DefaultHBMConfig()
		hc.SizeBytes = spec.HBMCacheBytes
		att.Backend.EnableHBMCache(hc)
	}
	dist := int(10 * att.Backend.BaseLatency() / ch.Cfg.DRAMLatency)
	if dist > 250 {
		dist = 250
	}
	att.Node = ch.Mem.AddNode(&mem.Node{
		Name:     id + ".numa",
		Socket:   0,
		CPULess:  true,
		Capacity: 0, // grows as sections come online
		Backend:  att.Backend,
		Distance: dist,
	})
	for i := 0; i < sections; i++ {
		secBase := att.DeviceBase + uint64(i)*uint64(secSize)
		if _, err := ch.Hotplug.Probe(secBase, att.Node); err != nil {
			return nil, fmt.Errorf("core: hotplug probe: %w", err)
		}
		if err := ch.Hotplug.Online(secBase); err != nil {
			return nil, fmt.Errorf("core: hotplug online: %w", err)
		}
		att.Sections = append(att.Sections, secBase)
	}

	c.attachments[id] = att
	if c.observed() {
		c.attachmentProbes(att, c.publish)
	}
	return att, nil
}

func (c *Cluster) rollbackDonor(dh *Host, region *endpoint.StolenRegion, bytes int64) {
	dh.Memory.Release(region) //nolint:errcheck
	dh.Mem.Node(dh.LocalNode(0)).Capacity += bytes
}

// onLinkDown handles an LLC escalation on one of host ch's ports: every
// attachment routed over that port is fenced and the endpoint's outstanding
// transactions are faulted so blocked issuers wake with ErrLinkDown.
func (c *Cluster) onLinkDown(ch *Host, port *llc.Port) {
	for _, id := range c.attachmentIDs() {
		att := c.attachments[id]
		if att.ComputeHost != ch.Name {
			continue
		}
		for _, p := range att.computePorts {
			if p == port && att.state != StateDetached {
				att.state = StateLinkDown
			}
		}
	}
	ch.Compute.SetLinkDown()
	ch.Compute.FaultOutstanding(endpoint.ErrLinkDown)
}

// attachmentIDs returns live attachment IDs in sorted order so every
// cluster-wide walk is deterministic.
func (c *Cluster) attachmentIDs() []string {
	ids := make([]string, 0, len(c.attachments))
	for id := range c.attachments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ApplyFaultSchedule installs sched on every channel of the attachment, both
// directions, with per-channel derived seeds so multi-channel attachments
// draw independent but reproducible fault streams.
func (c *Cluster) ApplyFaultSchedule(att *Attachment, sched phy.FaultSchedule) {
	for i, p := range att.computePorts {
		fwd := sched
		fwd.Base.Seed = sched.Base.Seed + int64(i)*7919
		p.Channel().SetSchedule(fwd)
		if p.Peer() != nil {
			rev := sched
			rev.Base.Seed = sched.Base.Seed + int64(i)*7919 + 1
			p.Peer().Channel().SetSchedule(rev)
		}
	}
}

// drainPollInterval is how often a graceful detach re-checks the endpoint's
// outstanding-transaction count in virtual time.
const drainPollInterval = sim.Microsecond

// BeginDetach starts detaching an attachment while traffic may still be in
// flight. New Load/Store requests are rejected immediately (StateDraining).
// With force=false the detach completes once every outstanding transaction
// has drained; with force=true outstanding transactions are faulted with
// ErrDetaching and teardown proceeds at once. done (optional) is called in
// virtual time with the final teardown result.
func (c *Cluster) BeginDetach(id string, force bool, done func(error)) error {
	att, ok := c.attachments[id]
	if !ok {
		return fmt.Errorf("core: unknown attachment %q", id)
	}
	if att.state == StateDraining {
		return fmt.Errorf("core: attachment %q already draining", id)
	}
	ch := c.hosts[att.ComputeHost]
	att.state = StateDraining
	finish := func() {
		err := c.Detach(id)
		if err == nil {
			att.state = StateDetached
		}
		if done != nil {
			done(err)
		}
	}
	if force {
		ch.Compute.FaultOutstanding(ErrDetaching)
		ch.K.Schedule(0, finish)
		return nil
	}
	var poll func()
	poll = func() {
		if ch.Compute.Outstanding() == 0 {
			finish()
			return
		}
		ch.K.Schedule(drainPollInterval, poll)
	}
	ch.K.Schedule(0, poll)
	return nil
}

// Detach tears an attachment down. Pages still on the disaggregated node
// are migrated to the compute host's local node first (the OS-level path a
// planned removal takes); detach fails if local memory cannot absorb them.
func (c *Cluster) Detach(id string) error {
	att, ok := c.attachments[id]
	if !ok {
		return fmt.Errorf("core: unknown attachment %q", id)
	}
	ch := c.hosts[att.ComputeHost]
	dh := c.hosts[att.DonorHost]

	if _, err := numa.Drain(ch.Mem, att.Node, ch.LocalNode(0)); err != nil {
		return fmt.Errorf("core: detach %s: %w", id, err)
	}
	for _, base := range att.Sections {
		if err := ch.Hotplug.Offline(base); err != nil {
			return err
		}
		if err := ch.Hotplug.Remove(base); err != nil {
			return err
		}
	}
	ch.Mem.RemoveNode(att.Node)
	secSize := ch.Cfg.SectionSize
	firstSection := int(att.DeviceBase / uint64(secSize))
	for i := range att.Sections {
		if err := ch.Compute.RMMU().Unmap(firstSection + i); err != nil {
			return err
		}
	}
	ch.releaseSections(firstSection, len(att.Sections))
	if err := ch.Compute.Router().RemoveFlow(att.NetworkID); err != nil {
		return err
	}
	if csi, dsi := c.ShardOf(att.ComputeHost), c.ShardOf(att.DonorHost); csi != dsi {
		// The donor lives on another shard: release its pinned memory there,
		// one lookahead later, instead of reaching into its state mid-window.
		region, bytes := att.Region, att.Bytes
		c.injectFrom(csi, dsi, func() { c.rollbackDonor(dh, region, bytes) })
	} else {
		c.rollbackDonor(dh, att.Region, att.Bytes)
	}
	delete(c.attachments, id)
	att.state = StateDetached
	return nil
}

// Attachment returns a live attachment by ID.
func (c *Cluster) Attachment(id string) (*Attachment, bool) {
	a, ok := c.attachments[id]
	return a, ok
}

// Attachments lists live attachments sorted by ID.
func (c *Cluster) Attachments() []*Attachment {
	out := make([]*Attachment, 0, len(c.attachments))
	for _, a := range c.attachments {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// StateDigest writes a canonical plain-text dump of the cluster's
// deterministic end state: per-host endpoint counters and per-attachment
// LLC/phy/router statistics, in registration and sorted-ID order. The
// determinism tests compare the digest of a sharded run byte-for-byte
// against the sequential run's. Kernel clocks and the latency sink are
// deliberately excluded: per-shard clocks legitimately stop at different
// instants, and the sink's float sums depend on merge order.
func (c *Cluster) StateDigest(w io.Writer) {
	for _, name := range c.hostOrder {
		h := c.hosts[name]
		loads, stores := h.Compute.Stats()
		served, rejected := h.Memory.Stats()
		fwd, drop := h.Compute.Router().Stats()
		fmt.Fprintf(w, "host %s loads=%d stores=%d outstanding=%d faulted=%d served=%d rejected=%d fwd=%d drop=%d free=%d\n",
			name, loads, stores, h.Compute.Outstanding(), h.Compute.Faulted(), served, rejected, fwd, drop, h.FreeLocalBytes())
	}
	for _, id := range c.attachmentIDs() {
		att := c.attachments[id]
		fmt.Fprintf(w, "attachment %s state=%s traffic=%+v\n", id, att.state, att.Traffic())
		for i, p := range att.computePorts {
			fmt.Fprintf(w, "  port %d credits=%d stats=%+v\n", i, p.Credits(), p.Stats())
			if peer := p.Peer(); peer != nil {
				fmt.Fprintf(w, "  peer %d credits=%d stats=%+v\n", i, peer.Credits(), peer.Stats())
				s, d, cr := peer.Channel().Stats()
				fmt.Fprintf(w, "  rev-chan %d sent=%d dropped=%d corrupted=%d\n", i, s, d, cr)
			}
			s, d, cr := p.Channel().Stats()
			fmt.Fprintf(w, "  fwd-chan %d sent=%d dropped=%d corrupted=%d\n", i, s, d, cr)
		}
	}
}

// Load reads through the full transaction datapath (CPU -> RMMU -> routing
// -> LLC -> phy -> donor C1 -> back). off is a byte offset within the
// attachment.
func (c *Cluster) Load(p *sim.Proc, att *Attachment, off int64, size int32) ([]byte, error) {
	if att.state != StateActive {
		return nil, fmt.Errorf("core: load on attachment %s in state %s", att.ID, att.state)
	}
	if off < 0 || off+int64(size) > att.Bytes {
		return nil, fmt.Errorf("core: load offset %d+%d outside attachment of %d", off, size, att.Bytes)
	}
	ch := c.hosts[att.ComputeHost]
	return ch.Compute.Load(p, att.DeviceBase+uint64(off), size)
}

// Store writes through the full transaction datapath.
func (c *Cluster) Store(p *sim.Proc, att *Attachment, off int64, data []byte) error {
	if att.state != StateActive {
		return fmt.Errorf("core: store on attachment %s in state %s", att.ID, att.state)
	}
	if off < 0 || off+int64(len(data)) > att.Bytes {
		return fmt.Errorf("core: store offset %d+%d outside attachment of %d", off, len(data), att.Bytes)
	}
	ch := c.hosts[att.ComputeHost]
	return ch.Compute.Store(p, att.DeviceBase+uint64(off), data)
}
