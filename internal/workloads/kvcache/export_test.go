package kvcache

// SlabStats describes one size class's occupancy (memcached's `stats
// slabs` view).
type SlabStats struct {
	ClassBytes int64 // slot size of the class
	Items      int64 // live items in the class
	FreeSlots  int64 // carved but unused slots
	UsedBytes  int64 // live bytes including per-item overhead
	WasteBytes int64 // internal fragmentation: slot size minus item size
}

// Slabs reports per-class occupancy, ordered by class size: the slab
// accounting test's view of the allocator.
func (s *Server) Slabs() []SlabStats {
	out := make([]SlabStats, len(slabClasses))
	for i, c := range slabClasses {
		out[i].ClassBytes = c
		out[i].FreeSlots = int64(len(s.free[i]))
	}
	for it := s.head.next; it != s.tail; it = it.next {
		st := &out[it.cls]
		st.Items++
		st.UsedBytes += itemOverhead + it.size
		st.WasteBytes += slabClasses[it.cls] - (itemOverhead + it.size)
	}
	return out
}
