// Package fabric models the rack-scale network topologies of Section VII:
// beyond the prototype's direct-attached cables, a production deployment
// needs a switching layer — the paper argues at most one switch keeps the
// RTT acceptable, and weighs circuit-switched optics (no congestion, port
// limited) against packet switches (any-to-any, congestion-prone).
//
// A Switch here interposes between phy channels: a circuit-configured
// switch forwards frames from an ingress channel to its configured egress
// with a fixed switching latency; a packet switch additionally serializes
// all traffic through a shared crossbar with output queueing.
package fabric

import (
	"fmt"

	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// Mode selects the switching discipline.
type Mode int

// Switching disciplines of Section VII.
const (
	// Circuit is an optical circuit switch: after (slow, out-of-band)
	// reconfiguration, a circuit behaves like a cable with one extra
	// crossing — enormous bandwidth, no congestion, port-limited.
	Circuit Mode = iota
	// Packet is an electrical packet switch: any-to-any reachability
	// without reconfiguration, but frames pay store-and-forward and share
	// the crossbar, introducing congestion.
	Packet
)

var modeNames = [...]string{"circuit", "packet"}

// String returns the mode name.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config tunes a switch.
type Config struct {
	Mode Mode
	// Ports is the port count (circuit switches are port-limited; the
	// paper cites ns/us-scale optical switches of modest radix).
	Ports int
	// CrossingLatency is the per-frame forwarding latency: ~tens of ns for
	// an optical circuit (propagation only), hundreds for a packet switch
	// (store-and-forward + arbitration).
	CrossingLatency sim.Time
	// CrossbarBytesPerSec bounds the packet switch's aggregate throughput;
	// ignored in circuit mode (each circuit has the full line rate).
	CrossbarBytesPerSec float64
}

// DefaultCircuitConfig returns an optical circuit switch: 32 ports, 30 ns.
func DefaultCircuitConfig() Config {
	return Config{Mode: Circuit, Ports: 32, CrossingLatency: 30 * sim.Nanosecond}
}

// DefaultPacketConfig returns an electrical packet switch: 32 ports,
// 300 ns store-and-forward, 4x the channel rate of crossbar capacity.
func DefaultPacketConfig() Config {
	return Config{
		Mode:                Packet,
		Ports:               32,
		CrossingLatency:     300 * sim.Nanosecond,
		CrossbarBytesPerSec: 4 * phy.ChannelBytesPerSec,
	}
}

// Switch forwards frames between phy channels.
type Switch struct {
	k        *sim.Kernel
	name     string
	cfg      Config
	crossbar *sim.Pipe // packet mode only
	circuits int

	forwarded int64
	bytes     int64
}

// NewSwitch builds a switch.
func NewSwitch(k *sim.Kernel, name string, cfg Config) *Switch {
	if cfg.Ports <= 0 {
		panic("fabric: switch needs ports")
	}
	s := &Switch{k: k, name: name, cfg: cfg}
	if cfg.Mode == Packet {
		rate := cfg.CrossbarBytesPerSec
		if rate <= 0 {
			rate = float64(cfg.Ports) * phy.ChannelBytesPerSec
		}
		s.crossbar = sim.NewPipe(k, rate)
	}
	return s
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// Connect configures a unidirectional circuit: frames arriving on `in` are
// forwarded out on `out`. Each circuit consumes one ingress and one egress
// port. It returns an error when the switch is out of ports.
func (s *Switch) Connect(in, out *phy.Channel) error {
	if s.circuits*2+2 > s.cfg.Ports {
		return fmt.Errorf("fabric: switch %s out of ports (%d)", s.name, s.cfg.Ports)
	}
	s.circuits++
	in.OnDeliver(func(d phy.Delivery) {
		s.forwarded++
		s.bytes += int64(d.Bytes)
		delay := s.cfg.CrossingLatency
		if s.crossbar != nil {
			_, done := s.crossbar.Reserve(int64(d.Bytes))
			delay += done - s.k.Now()
		}
		// Forward keeps the corruption marker: a frame mangled on the
		// first hop stays mangled.
		s.k.Schedule(delay, func() { out.Forward(d) })
	})
	return nil
}

// Stats returns (frames forwarded, bytes forwarded).
func (s *Switch) Stats() (frames, bytes int64) { return s.forwarded, s.bytes }

// Circuits returns the number of configured circuits.
func (s *Switch) Circuits() int { return s.circuits }
