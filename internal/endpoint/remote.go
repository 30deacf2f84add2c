package endpoint

import (
	"math"

	"thymesisflow/internal/mem"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// DatapathRTT is the hardware datapath flit round-trip latency of the
// prototype (Section V): four FPGA-stack crossings plus six serDES
// crossings, ~950 ns.
const DatapathRTT = 4*phy.FPGAStackCrossing + 6*phy.SerdesCrossing

// The congestion model prices the efficiency loss of the network-facing
// stack near saturation (Section VI-C: "performance decreases because the
// network facing stack gets closer to the saturation threshold"): as the
// channel's committed backlog approaches congestionWindow, up to
// congestionAlpha of the bandwidth is wasted on credit stalls and frame
// replays, reducing goodput. The values match the ~10% goodput decline the
// paper observes when moving from 8 to 16 STREAM threads on one channel:
// the backlog of ~8 blocked streaming threads produces mild waste and ~16
// threads substantially more, mirroring the Rx-queue credit pressure of the
// prototype.
const (
	congestionWindow = 6 * sim.Millisecond
	congestionAlpha  = 0.13
)

// RemoteBackend is the mem.Backend adapter for a disaggregated NUMA node:
// it prices memory accesses through the ThymesisFlow datapath analytically
// (channel bandwidth, C1 ceiling, datapath RTT, donor DRAM) so that
// workload simulations do not pay per-cacheline event costs.
//
// Each channel pipe models the aggregate goodput of one 100 Gbit/s
// network-facing channel (12.5 GiB/s, the paper's "theoretical maximum"),
// shared by request and response traffic. Bonding adds channels in
// round-robin, while the donor-side C1 interface caps aggregate throughput
// at ~16 GiB/s for 128-byte transactions.
type RemoteBackend struct {
	k        *sim.Kernel
	name     string
	channels []*sim.Pipe
	c1       *sim.Pipe
	dramLat  sim.Time
	rr       int
	// hbm is the optional Section VII caching layer (see hbm.go).
	hbm *hbmCache
}

// NewRemoteBackend builds a backend over `channels` bonded network channels
// (1 = single-disaggregated, 2 = bonding-disaggregated). The c1 pipe may be
// shared with a MemoryEndpoint; pass nil to create a private one.
func NewRemoteBackend(k *sim.Kernel, name string, channels int, c1 *sim.Pipe, donorDRAMLat sim.Time) *RemoteBackend {
	if channels <= 0 {
		channels = 1
	}
	pipes := make([]*sim.Pipe, channels)
	for i := range pipes {
		pipes[i] = sim.NewPipe(k, phy.ChannelBytesPerSec)
	}
	if c1 == nil {
		c1 = sim.NewPipe(k, C1BytesPerSec)
	}
	return &RemoteBackend{
		k:        k,
		name:     name,
		channels: pipes,
		c1:       c1,
		dramLat:  donorDRAMLat,
	}
}

// Name implements mem.Backend.
func (b *RemoteBackend) Name() string { return b.name }

// BaseLatency implements mem.Backend: datapath RTT plus donor DRAM.
func (b *RemoteBackend) BaseLatency() sim.Time { return DatapathRTT + b.dramLat }

// StreamBandwidth implements mem.Backend.
func (b *RemoteBackend) StreamBandwidth() float64 {
	total := 0.0
	for _, ch := range b.channels {
		total += ch.Rate()
	}
	return math.Min(total, b.c1.Rate())
}

// inflate applies the congestion waste factor for a transfer on channel ch.
func (b *RemoteBackend) inflate(ch *sim.Pipe, n int64) int64 {
	overload := float64(ch.Backlog()) / float64(congestionWindow)
	if overload > 1 {
		overload = 1
	}
	waste := congestionAlpha * overload
	return int64(float64(n) * (1 + waste))
}

// reserve books n bytes across the bonded channels (round-robin start, then
// splitting evenly) and on the C1 interface; it returns the completion time.
func (b *RemoteBackend) reserve(n int64) sim.Time {
	var done sim.Time
	if len(b.channels) == 1 {
		ch := b.channels[0]
		_, d := ch.Reserve(b.inflate(ch, n))
		done = d
	} else {
		per := n / int64(len(b.channels))
		rem := n - per*int64(len(b.channels))
		for i := range b.channels {
			ch := b.channels[(b.rr+i)%len(b.channels)]
			part := per
			if i == 0 {
				part += rem
			}
			if part == 0 {
				continue
			}
			_, d := ch.Reserve(b.inflate(ch, part))
			if d > done {
				done = d
			}
		}
		b.rr++
	}
	_, c1done := b.c1.Reserve(n)
	if c1done > done {
		done = c1done
	}
	return done
}

// BondReorderPenalty is the extra demand-access latency per additional
// bonded channel: responses of one flow returning on different channels
// must be re-sequenced at the compute endpoint, which costs latency even
// though bonding raises bandwidth. This is why the paper's
// bonding-disaggregated configuration shows slightly worse Memcached tail
// latency than single-disaggregated (Figure 8) while winning on STREAM.
const BondReorderPenalty = 300 * sim.Nanosecond

// Access implements mem.Backend: a demand miss pays the full datapath RTT,
// donor DRAM, plus any queueing on the channels and C1 interface.
func (b *RemoteBackend) Access(size int64, write bool) sim.Time {
	if size <= 0 {
		return 0
	}
	done := b.reserve(size)
	lat := (done - b.k.Now()) + DatapathRTT + b.dramLat
	if n := len(b.channels); n > 1 {
		lat += sim.Time(n-1) * BondReorderPenalty
	}
	return lat
}

// ReserveStream implements mem.Backend: bulk transfers pay bandwidth (with
// congestion waste) but hide the RTT behind prefetch pipelining.
func (b *RemoteBackend) ReserveStream(n int64) sim.Time {
	if n <= 0 {
		return b.k.Now()
	}
	return b.reserve(n)
}

// Channels exposes the channel pipes for statistics.
func (b *RemoteBackend) Channels() []*sim.Pipe { return b.channels }

var _ mem.Backend = (*RemoteBackend)(nil)
