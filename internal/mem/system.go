package mem

import (
	"fmt"

	"thymesisflow/internal/sim"
)

// NodeID identifies a NUMA node within a simulated host.
type NodeID int

// DefaultPageSize is the page granularity used for placement decisions
// (64 KiB, the POWER9 Linux default).
const DefaultPageSize = 64 * 1024

// Node is one NUMA node: a quantity of memory behind a Backend, optionally
// CPU-less (the paper maps each disaggregated memory section to a CPU-less
// NUMA node, Section IV-B).
type Node struct {
	ID       NodeID
	Name     string
	Socket   int  // socket the node is attached to (for LLC affinity)
	CPULess  bool // true for disaggregated-memory nodes
	Capacity int64
	Used     int64
	Backend  Backend
	// Distance is the ACPI-SLIT-style relative distance from CPU sockets to
	// this node (10 = local). The kernel's NUMA allocator prefers smaller
	// distances.
	Distance int
}

// unmapped marks a page table entry with no owning node: page 0, and pages
// that were freed or never placed.
const unmapped NodeID = -1

// System is the memory system of one simulated host: NUMA nodes, a paged
// physical address space, and the shared last-level caches (one per socket).
type System struct {
	K        *sim.Kernel
	PageSize int64

	nodes []*Node
	llc   []*Cache // socket -> shared LLC

	// pageNode is the page table, indexed by page: the owning node, or
	// unmapped. Alloc bump-allocates addresses and never reuses them, so the
	// table is dense and len(pageNode) == nextAddr/PageSize.
	pageNode []NodeID
	nextAddr uint64
}

// NewSystem creates an empty memory system with the given page size
// (0 selects DefaultPageSize).
func NewSystem(k *sim.Kernel, pageSize int64) *System {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize%CachelineSize != 0 {
		panic("mem: page size must be a multiple of the cacheline size")
	}
	return &System{
		K:        k,
		PageSize: pageSize,
		pageNode: []NodeID{unmapped},
		nextAddr: uint64(pageSize), // keep address 0 unused
	}
}

// AddNode registers a NUMA node and returns its ID.
func (s *System) AddNode(n *Node) NodeID {
	n.ID = NodeID(len(s.nodes))
	s.nodes = append(s.nodes, n)
	return n.ID
}

// RemoveNode deletes a (hot-unplugged) node. Pages must have been migrated
// or freed first; it panics if the node still backs mapped pages.
func (s *System) RemoveNode(id NodeID) {
	for _, owner := range s.pageNode {
		if owner == id {
			panic(fmt.Sprintf("mem: RemoveNode(%d) with mapped pages", id))
		}
	}
	s.nodes[id] = nil
}

// Node returns the node with the given ID, or nil if the ID is unknown or
// the node was removed.
func (s *System) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(s.nodes) {
		return nil
	}
	return s.nodes[id]
}

// Nodes returns all live nodes.
func (s *System) Nodes() []*Node {
	out := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// SetLLC installs the shared last-level cache for a socket.
func (s *System) SetLLC(socket int, c *Cache) {
	for len(s.llc) <= socket {
		s.llc = append(s.llc, nil)
	}
	s.llc[socket] = c
}

// LLC returns the shared LLC of a socket (nil if not configured).
func (s *System) LLC(socket int) *Cache {
	if socket < 0 || socket >= len(s.llc) {
		return nil
	}
	return s.llc[socket]
}

// Buffer is a contiguous virtual allocation whose pages may live on
// different NUMA nodes.
type Buffer struct {
	sys  *System
	Base uint64
	Size int64
}

// Alloc reserves size bytes (rounded up to whole pages) and places each page
// on the node chosen by place(pageIndexWithinBuffer). It returns an error if
// any chosen node lacks capacity.
func (s *System) Alloc(size int64, place func(page int) NodeID) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: Alloc size %d", size)
	}
	pages := (size + s.PageSize - 1) / s.PageSize
	base := s.nextAddr
	first := len(s.pageNode)
	// Place incrementally so stateful placers (e.g. numa.Preferred, which
	// consults free capacity) see usage grow page by page; roll back on
	// failure so a failed allocation leaves no trace.
	rollback := func() {
		for _, id := range s.pageNode[first:] {
			s.nodes[id].Used -= s.PageSize
		}
		s.pageNode = s.pageNode[:first]
	}
	for i := int64(0); i < pages; i++ {
		id := place(int(i))
		node := s.nodes[id]
		if node == nil {
			rollback()
			return nil, fmt.Errorf("mem: Alloc on removed node %d", id)
		}
		if node.Used+s.PageSize > node.Capacity {
			rollback()
			return nil, fmt.Errorf("mem: node %d (%s) out of memory at page %d of %d",
				id, node.Name, i, pages)
		}
		s.pageNode = append(s.pageNode, id)
		node.Used += s.PageSize
	}
	s.nextAddr += uint64(pages * s.PageSize)
	return &Buffer{sys: s, Base: base, Size: pages * s.PageSize}, nil
}

// Free releases the buffer's pages.
func (s *System) Free(b *Buffer) {
	first := b.Base / uint64(s.PageSize)
	for pg := first; pg < first+uint64(b.Size/s.PageSize); pg++ {
		if id := s.pageNode[pg]; id != unmapped {
			s.nodes[id].Used -= s.PageSize
			s.pageNode[pg] = unmapped
		}
	}
}

// NodeOf returns the NUMA node owning the page containing addr.
func (s *System) NodeOf(addr uint64) NodeID {
	id, ok := s.owner(addr / uint64(s.PageSize))
	if !ok {
		panic(fmt.Sprintf("mem: access to unmapped address %#x", addr))
	}
	return id
}

// owner returns the node owning page pg, if the page is mapped.
func (s *System) owner(pg uint64) (NodeID, bool) {
	if pg >= uint64(len(s.pageNode)) || s.pageNode[pg] == unmapped {
		return unmapped, false
	}
	return s.pageNode[pg], true
}

// MigratePage moves one page to a different node (AutoNUMA / hot-unplug
// support). The caller is responsible for pricing the copy cost.
func (s *System) MigratePage(addr uint64, to NodeID) error {
	pg := addr / uint64(s.PageSize)
	from, ok := s.owner(pg)
	if !ok {
		return fmt.Errorf("mem: migrate of unmapped page %#x", addr)
	}
	if from == to {
		return nil
	}
	dst := s.nodes[to]
	if dst == nil {
		return fmt.Errorf("mem: migrate to removed node %d", to)
	}
	if dst.Used+s.PageSize > dst.Capacity {
		return fmt.Errorf("mem: migrate target node %d full", to)
	}
	s.nodes[from].Used -= s.PageSize
	dst.Used += s.PageSize
	s.pageNode[pg] = to
	return nil
}

// AnyPageOn returns the address of some page mapped on node id, if any.
// Iteration order is deterministic (lowest page first) so simulations stay
// reproducible.
func (s *System) AnyPageOn(id NodeID) (uint64, bool) {
	for pg, owner := range s.pageNode {
		if owner == id {
			return uint64(pg) * uint64(s.PageSize), true
		}
	}
	return 0, false
}

// Run is a contiguous byte range of a buffer living on a single NUMA node.
type Run struct {
	Node  NodeID
	Bytes int64
}

// RunsIn walks [off, off+n) of the buffer and groups consecutive pages by
// owning node, returning one Run per group in address order. Streaming
// kernels use it to price per-node traffic without visiting every page.
func (b *Buffer) RunsIn(off, n int64) []Run {
	if off < 0 || n < 0 || off+n > b.Size {
		panic(fmt.Sprintf("mem: RunsIn(%d,%d) outside buffer of %d", off, n, b.Size))
	}
	var out []Run
	ps := b.sys.PageSize
	pos := off
	for pos < off+n {
		node := b.sys.NodeOf(b.Base + uint64(pos))
		// Bytes until the end of this page.
		pageEnd := (pos/ps + 1) * ps
		chunk := pageEnd - pos
		if rem := off + n - pos; chunk > rem {
			chunk = rem
		}
		if len(out) > 0 && out[len(out)-1].Node == node {
			out[len(out)-1].Bytes += chunk
		} else {
			out = append(out, Run{Node: node, Bytes: chunk})
		}
		pos += chunk
	}
	return out
}

// Addr returns the address at byte offset off within the buffer.
func (b *Buffer) Addr(off int64) uint64 {
	if off < 0 || off >= b.Size {
		panic(fmt.Sprintf("mem: buffer offset %d out of range [0,%d)", off, b.Size))
	}
	return b.Base + uint64(off)
}

// System returns the owning memory system.
func (b *Buffer) System() *System { return b.sys }
