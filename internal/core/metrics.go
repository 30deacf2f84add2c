package core

import (
	"fmt"

	"thymesisflow/internal/instrument"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/llc"
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim/shard"
)

// The datapath's scalar instrument tables. With llc.Instruments (bound per
// port) and phy.Instruments (per channel direction) they are the whole
// datapath catalogue; RegisterMetrics and EnableFlightRecorder both bind it
// through eachProbe, so an instrument has one name and one kind on every
// surface (docs/OBSERVABILITY.md).
var (
	// clusterInstruments: pending events summed over every shard kernel,
	// shard 0's virtual clock, and the live attachment count.
	clusterInstruments = []instrument.Def[*Cluster]{
		instrument.Gauge("sim.queue_depth", func(c *Cluster) float64 { return float64(c.queueDepth()) }),
		instrument.Gauge("sim.now_seconds", func(c *Cluster) float64 { return c.K.Now().Seconds() }),
		instrument.Gauge("attachments", func(c *Cluster) float64 { return float64(len(c.attachments)) }),
	}

	// groupInstruments: shard-runtime health (sharded clusters only) — how
	// evenly the conservative-window runtime spreads work and how hard the
	// barriers bite. Derived from virtual time, so deterministic per seed
	// and shard count.
	groupInstruments = []instrument.Def[*shard.Group]{
		instrument.Gauge("shard.windows", func(g *shard.Group) float64 { return float64(g.Summary().Windows) }),
		instrument.Gauge("shard.events_per_window", func(g *shard.Group) float64 { return g.Summary().EventsPerWindow }),
		instrument.Gauge("shard.flush_max_depth", func(g *shard.Group) float64 { return float64(g.Summary().MaxFlushDepth) }),
		instrument.Gauge("shard.flushed_messages", func(g *shard.Group) float64 { return float64(g.Summary().Flushed) }),
		instrument.Gauge("shard.imbalance", func(g *shard.Group) float64 { return g.Summary().Imbalance }),
	}

	// shardInstruments, bound as shard.<i>.: the shard's executed events
	// and the virtual time it sat parked at barriers.
	shardInstruments = []instrument.Def[shardRef]{
		instrument.Gauge("events", func(s shardRef) float64 { return float64(s.g.ShardStat(s.i).Events) }),
		instrument.Counter("barrier_stall_ns", func(s shardRef) float64 { return float64(s.g.ShardStat(s.i).StallPS / 1000) }),
	}

	// hostInstruments, bound as capi.<host>.: compute-endpoint in-flight
	// transaction depth.
	hostInstruments = []instrument.Def[*Host]{
		instrument.Gauge("outstanding", func(h *Host) float64 { return float64(h.Compute.Outstanding()) }),
	}

	// backendInstruments, bound as backend.<att>.: bytes the attachment's
	// analytic backend moved over its channel pipes.
	backendInstruments = []instrument.Def[*Attachment]{
		instrument.Counter("bytes", func(att *Attachment) float64 {
			var total int64
			for _, pipe := range att.Backend.Channels() {
				total += pipe.TotalBytes()
			}
			return float64(total)
		}),
	}
)

// shardRef names one shard of a group.
type shardRef struct {
	g *shard.Group
	i int
}

// queueDepth sums the live pending events of every shard kernel.
func (c *Cluster) queueDepth() int {
	if c.group == nil {
		return c.K.Pending()
	}
	n := 0
	for i := 0; i < c.group.Len(); i++ {
		n += c.group.Shard(i).Kernel().Pending()
	}
	return n
}

// eachProbe binds the instrument tables to every instrumented object the
// cluster holds and hands fn each group of probes with the index of the
// shard whose kernel owns the group's state.
func (c *Cluster) eachProbe(fn func(si int, probes []instrument.Probe)) {
	fn(0, instrument.Bind("", clusterInstruments, c))
	if c.group != nil {
		fn(0, instrument.Bind("", groupInstruments, c.group))
		for i := 0; i < c.group.Len(); i++ {
			fn(i, instrument.Bind(fmt.Sprintf("shard.%d.", i), shardInstruments, shardRef{c.group, i}))
		}
	}
	for _, name := range c.hostOrder {
		c.hostProbes(c.hosts[name], fn)
	}
	for _, id := range c.attachmentIDs() {
		c.attachmentProbes(c.attachments[id], fn)
	}
}

func (c *Cluster) hostProbes(h *Host, fn func(int, []instrument.Probe)) {
	fn(c.ShardOf(h.Name), instrument.Bind("capi."+h.Name+".", hostInstruments, h))
}

// attachmentProbes binds the attachment's backend, ports and channels.
// The backend, the compute-side ports (p<i>) and the forward channels live
// on the compute host's kernel; the donor-side ports (q<i>) and reverse
// channels on the donor's.
func (c *Cluster) attachmentProbes(att *Attachment, fn func(int, []instrument.Probe)) {
	csi, dsi := c.ShardOf(att.ComputeHost), c.ShardOf(att.DonorHost)
	fn(csi, instrument.Bind("backend."+att.ID+".", backendInstruments, att))
	side := func(si int, p *llc.Port, port, dir string) {
		fn(si, instrument.Bind(port, llc.Instruments, p))
		if ch := p.Channel(); ch != nil {
			fn(si, instrument.Bind(dir, phy.Instruments, ch))
		}
	}
	for i, p := range att.computePorts {
		if p == nil {
			continue
		}
		side(csi, p, fmt.Sprintf("llc.%s.p%d.", att.ID, i), fmt.Sprintf("phy.%s.c%d.fwd.", att.ID, i))
		if peer := p.Peer(); peer != nil {
			side(dsi, peer, fmt.Sprintf("llc.%s.q%d.", att.ID, i), fmt.Sprintf("phy.%s.c%d.rev.", att.ID, i))
		}
	}
}

// registration is one RegisterMetrics call: the registry and name prefix
// that objects added later are published under.
type registration struct {
	reg    *metrics.Registry
	prefix string
}

// publish hands the probes of an object added after telemetry was enabled
// to every registry and the flight recorder.
func (c *Cluster) publish(si int, probes []instrument.Probe) {
	for _, r := range c.registries {
		instrument.Register(r.reg, r.prefix, probes)
	}
	if c.flight != nil {
		c.flight.add(si, probes)
	}
}

// observed reports whether any telemetry surface wants probes for newly
// added objects; a cluster with none binds nothing.
func (c *Cluster) observed() bool { return len(c.registries) > 0 || c.flight != nil }

// RegisterMetrics publishes the cluster's datapath instruments into reg
// under the given prefix (may be empty). Every counter and gauge is a read
// function evaluated at snapshot time, so registry values are the live
// absolute values. Hosts and attachments added later are registered as they
// are created; a detached attachment's instruments keep reporting its final
// values.
func (c *Cluster) RegisterMetrics(reg *metrics.Registry, prefix string) {
	c.registries = append(c.registries, registration{reg, prefix})
	c.eachProbe(func(_ int, probes []instrument.Probe) { instrument.Register(reg, prefix, probes) })

	// Latency-attribution distributions surface as snapshot-time histogram
	// functions so the registry (and the Prometheus exposition built on it)
	// always reflects the sink, whether attribution was enabled before or
	// after registration. Disabled clusters report empty summaries.
	reg.HistogramFunc(prefix+"latency.rtt_ns", func() metrics.HistogramSummary {
		if c.lat == nil {
			return metrics.HistogramSummary{}
		}
		return c.lat.EndToEndSummary()
	})
	for _, st := range latency.Stages() {
		st := st
		reg.HistogramFunc(prefix+"latency.stage."+st.String()+"_ns", func() metrics.HistogramSummary {
			if c.lat == nil {
				return metrics.HistogramSummary{}
			}
			return c.lat.StageSummaryFor(st)
		})
	}
}
