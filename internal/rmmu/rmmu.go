// Package rmmu implements the ThymesisFlow Remote Memory Management Unit
// (Section IV-A1): the section-indexed translation table integrated into the
// compute endpoint.
//
// Address pipeline (Figure 3 of the paper):
//
//	effective addr --CPU MMU--> real addr --OpenCAPI--> device-internal addr
//	  --RMMU--> remote effective addr (+ network ID for the routing layer)
//
// The device-internal address space always starts at 0. It is divided into
// fixed-size, aligned sections matching the Linux sparse-memory-model
// section size, so one RMMU entry corresponds to exactly one hotpluggable
// memory section. Each entry carries (a) the offset converting the
// device-internal address into the memory-stealing side's effective address
// and (b) the network identifier of the active thymesisflow, used by the
// routing layer.
package rmmu

import (
	"fmt"

	"thymesisflow/internal/capi"
)

// DefaultSectionSize is the Linux sparse memory model section size on the
// simulated hosts (256 MiB, the ppc64 default).
const DefaultSectionSize = 256 * 1024 * 1024

// Entry is one section-table entry.
type Entry struct {
	Valid bool
	// Offset converts a device-internal address within this section into
	// the memory-stealing endpoint's effective address:
	//   remoteEA = deviceAddr - sectionBase + Offset
	Offset uint64
	// NetworkID identifies the active thymesisflow the section belongs to;
	// the routing layer forwards on it.
	NetworkID uint16
	// Bonded requests round-robin channel bonding for this flow.
	Bonded bool
}

// RMMU is the remote memory management unit: a section table indexed by the
// high bits of the device-internal address.
type RMMU struct {
	sectionSize uint64
	table       []Entry
}

// New builds an RMMU covering `sections` sections of the given size (0 size
// selects DefaultSectionSize). Section size must be a power of two and a
// multiple of the cacheline size.
func New(sections int, sectionSize int64) (*RMMU, error) {
	if sectionSize == 0 {
		sectionSize = DefaultSectionSize
	}
	if sections <= 0 {
		return nil, fmt.Errorf("rmmu: need at least one section, got %d", sections)
	}
	if sectionSize&(sectionSize-1) != 0 {
		return nil, fmt.Errorf("rmmu: section size %d not a power of two", sectionSize)
	}
	if sectionSize%capi.Cacheline != 0 {
		return nil, fmt.Errorf("rmmu: section size %d not cacheline aligned", sectionSize)
	}
	return &RMMU{sectionSize: uint64(sectionSize), table: make([]Entry, sections)}, nil
}

// SectionSize returns the configured section size in bytes.
func (m *RMMU) SectionSize() int64 { return int64(m.sectionSize) }

// Sections returns the number of table entries.
func (m *RMMU) Sections() int { return len(m.table) }

// Capacity returns the total device-internal address space covered.
func (m *RMMU) Capacity() int64 { return int64(m.sectionSize) * int64(len(m.table)) }

// sectionOf returns the section index of a device-internal address.
func (m *RMMU) sectionOf(deviceAddr uint64) int { return int(deviceAddr / m.sectionSize) }

// Map installs a section-table entry. The remote base must be aligned such
// that a whole section maps to a consecutive remote effective range (the
// architecture requires each section to be associated with a consecutive
// effective address space of the same size on the memory-stealing side).
func (m *RMMU) Map(section int, remoteBase uint64, networkID uint16, bonded bool) error {
	if section < 0 || section >= len(m.table) {
		return fmt.Errorf("rmmu: section %d outside table of %d", section, len(m.table))
	}
	if m.table[section].Valid {
		return fmt.Errorf("rmmu: section %d already mapped", section)
	}
	m.table[section] = Entry{Valid: true, Offset: remoteBase, NetworkID: networkID, Bonded: bonded}
	return nil
}

// Unmap invalidates a section-table entry.
func (m *RMMU) Unmap(section int) error {
	if section < 0 || section >= len(m.table) {
		return fmt.Errorf("rmmu: section %d outside table of %d", section, len(m.table))
	}
	if !m.table[section].Valid {
		return fmt.Errorf("rmmu: section %d not mapped", section)
	}
	m.table[section] = Entry{}
	return nil
}

// Entry returns a copy of the section's table entry.
func (m *RMMU) Entry(section int) (Entry, error) {
	if section < 0 || section >= len(m.table) {
		return Entry{}, fmt.Errorf("rmmu: section %d outside table of %d", section, len(m.table))
	}
	return m.table[section], nil
}

// Translate rewrites a request transaction in place from the
// device-internal representation to the remote effective representation,
// stamping the routing information. Transactions that cross a section
// boundary or hit an unmapped section fail — the control plane guarantees
// only legal destinations are configured (Section IV-C), so a failure here
// is surfaced as an error rather than forwarded.
func (m *RMMU) Translate(t *capi.Transaction) error {
	sec := m.sectionOf(t.Addr)
	if sec >= len(m.table) {
		return fmt.Errorf("rmmu: address %#x beyond device address space", t.Addr)
	}
	end := t.Addr + uint64(t.Size) - 1
	if t.Size > 0 && m.sectionOf(end) != sec {
		return fmt.Errorf("rmmu: transaction %#x+%d crosses section boundary", t.Addr, t.Size)
	}
	e := m.table[sec]
	if !e.Valid {
		return fmt.Errorf("rmmu: section %d not mapped (addr %#x)", sec, t.Addr)
	}
	inSection := t.Addr - uint64(sec)*m.sectionSize
	t.Addr = e.Offset + inSection
	t.NetworkID = e.NetworkID
	t.Bonded = e.Bonded
	return nil
}

// MappedSections returns the indices of valid sections in ascending order.
func (m *RMMU) MappedSections() []int {
	var out []int
	for i, e := range m.table {
		if e.Valid {
			out = append(out, i)
		}
	}
	return out
}
