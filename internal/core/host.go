// Package core is the public facade of the ThymesisFlow simulation: it
// assembles hosts (CPU, caches, NUMA memory, OpenCAPI endpoints) into a
// cluster and implements the full attach/detach lifecycle of disaggregated
// memory — donor-side stealing, RMMU configuration, routing-layer flows,
// LLC/phy channel wiring, Linux-style memory hotplug, and CPU-less NUMA
// node creation — mirroring Sections IV and V of the paper.
package core

import (
	"fmt"
	"slices"
	"sort"

	"thymesisflow/internal/endpoint"
	"thymesisflow/internal/hotplug"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/rmmu"
	"thymesisflow/internal/sim"
)

// HostConfig describes one simulated server. Defaults mirror the IBM Power
// System AC922 nodes of the prototype (Section V): dual-socket POWER9, 32
// physical cores, 128 hardware threads, 512 GiB of RAM.
type HostConfig struct {
	Name             string
	Sockets          int
	CoresPerSocket   int
	SMTPerCore       int
	DRAMPerSocket    int64
	DRAMLatency      sim.Time
	DRAMBWPerSocket  float64 // bytes/sec
	LLCSizePerSocket int64
	LLCWays          int
	CPU              mem.CPUConfig
	// SectionSize is the sparse-memory hotplug granularity.
	SectionSize int64
	// RMMUSections bounds the device address space of the compute endpoint.
	RMMUSections int
}

// DefaultHostConfig returns an AC922-like host.
func DefaultHostConfig(name string) HostConfig {
	return HostConfig{
		Name:             name,
		Sockets:          2,
		CoresPerSocket:   16,
		SMTPerCore:       4,
		DRAMPerSocket:    256 << 30,
		DRAMLatency:      90 * sim.Nanosecond,
		DRAMBWPerSocket:  140e9,
		LLCSizePerSocket: 120 << 20,
		LLCWays:          20,
		CPU:              mem.DefaultCPUConfig(),
		SectionSize:      rmmu.DefaultSectionSize,
		RMMUSections:     1024, // 256 GiB of attachable remote memory
	}
}

// HardwareThreads returns the host's total hardware thread count.
func (c HostConfig) HardwareThreads() int { return c.Sockets * c.CoresPerSocket * c.SMTPerCore }

// Host is one simulated server.
type Host struct {
	Name string
	K    *sim.Kernel
	Cfg  HostConfig

	// Mem is the host's memory system; LocalNodes holds one NUMA node per
	// socket.
	Mem        *mem.System
	LocalNodes []mem.NodeID

	// Cores gates execution: capacity equals the hardware thread count.
	Cores *sim.Resource

	// Hotplug manages sparse memory sections.
	Hotplug *hotplug.Manager

	// Compute and Memory are the ThymesisFlow endpoint personalities.
	Compute *endpoint.ComputeEndpoint
	Memory  *endpoint.MemoryEndpoint

	// RMMU sections: a bump cursor plus the runs detached attachments
	// returned, sorted by first section and coalesced. A host that never
	// detaches only bumps; one that churns reuses its table first-fit.
	nextSection int
	freeRuns    []sectionRun

	nextDonorBase uint64 // next donor effective address for stolen regions
}

// sectionRun is n consecutive RMMU sections starting at first.
type sectionRun struct{ first, n int }

// takeSections reserves n consecutive RMMU sections and returns the first:
// the first free run that fits, else the bump cursor. Past the table's end
// the cursor keeps counting and the RMMU rejects the mapping.
func (h *Host) takeSections(n int) int {
	for i, r := range h.freeRuns {
		if r.n < n {
			continue
		}
		if r.n == n {
			h.freeRuns = slices.Delete(h.freeRuns, i, i+1)
		} else {
			h.freeRuns[i] = sectionRun{r.first + n, r.n - n}
		}
		return r.first
	}
	first := h.nextSection
	h.nextSection += n
	return first
}

// releaseSections returns a run that takeSections handed out, merging it
// with its free neighbours; a run that ends at the cursor rewinds it.
func (h *Host) releaseSections(first, n int) {
	i := sort.Search(len(h.freeRuns), func(i int) bool { return h.freeRuns[i].first > first })
	if i > 0 && h.freeRuns[i-1].first+h.freeRuns[i-1].n == first {
		i--
		first, n = h.freeRuns[i].first, h.freeRuns[i].n+n
		h.freeRuns = slices.Delete(h.freeRuns, i, i+1)
	}
	if i < len(h.freeRuns) && first+n == h.freeRuns[i].first {
		n += h.freeRuns[i].n
		h.freeRuns = slices.Delete(h.freeRuns, i, i+1)
	}
	if first+n == h.nextSection {
		h.nextSection = first
		return
	}
	h.freeRuns = slices.Insert(h.freeRuns, i, sectionRun{first, n})
}

// NewHost builds a host on the given kernel.
func NewHost(k *sim.Kernel, cfg HostConfig) (*Host, error) {
	if cfg.Sockets <= 0 || cfg.CoresPerSocket <= 0 || cfg.SMTPerCore <= 0 {
		return nil, fmt.Errorf("core: host %q has no CPUs", cfg.Name)
	}
	sys := mem.NewSystem(k, 0)
	h := &Host{
		Name:          cfg.Name,
		K:             k,
		Cfg:           cfg,
		Mem:           sys,
		Cores:         sim.NewResource(k, cfg.HardwareThreads()),
		nextDonorBase: 0x100000000000, // arbitrary donor EA base
	}
	for s := 0; s < cfg.Sockets; s++ {
		be := mem.NewDRAMBackend(k, fmt.Sprintf("%s.dram%d", cfg.Name, s), cfg.DRAMLatency, cfg.DRAMBWPerSocket)
		id := sys.AddNode(&mem.Node{
			Name:     fmt.Sprintf("%s.node%d", cfg.Name, s),
			Socket:   s,
			Capacity: cfg.DRAMPerSocket,
			Backend:  be,
			Distance: 10,
		})
		h.LocalNodes = append(h.LocalNodes, id)
		sys.SetLLC(s, mem.NewCache(fmt.Sprintf("%s.llc%d", cfg.Name, s), cfg.LLCSizePerSocket, cfg.LLCWays))
	}
	h.Hotplug = hotplug.NewManager(sys, cfg.SectionSize)
	ce, err := endpoint.NewCompute(k, cfg.Name+".compute", cfg.RMMUSections, cfg.SectionSize)
	if err != nil {
		return nil, err
	}
	h.Compute = ce
	h.Memory = endpoint.NewMemory(k, cfg.Name+".memory", cfg.DRAMLatency)
	return h, nil
}

// NewThread creates an execution context bound to a socket (round-robin by
// index when callers spread threads).
func (h *Host) NewThread(socket int) *mem.Thread {
	return mem.NewThread(h.Mem, socket%h.Cfg.Sockets, h.Cfg.CPU)
}

// LocalNode returns the NUMA node of the given socket.
func (h *Host) LocalNode(socket int) mem.NodeID {
	return h.LocalNodes[socket%len(h.LocalNodes)]
}

// FreeLocalBytes returns the free capacity across local NUMA nodes.
func (h *Host) FreeLocalBytes() int64 {
	var free int64
	for _, id := range h.LocalNodes {
		n := h.Mem.Node(id)
		free += n.Capacity - n.Used
	}
	return free
}
