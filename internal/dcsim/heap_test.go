package dcsim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap event queue the typed eventHeap replaced,
// kept as the reference its push and pop must match.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return eventHeap(h).less(i, j) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEventHeapMatchesContainerHeap pushes seeded random events into the
// typed heap and the container/heap reference, interleaved with pops, and
// requires the same pop sequence. Times come from a handful of values and
// isEnd is mixed, so most events tie on (at, isEnd) with other events and
// only the sift order decides which of them pops first.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got eventHeap
		var want refHeap
		id := 0
		pops := 0
		for step := 0; step < 4000; step++ {
			if rng.Intn(3) > 0 || len(got) == 0 {
				e := event{
					at:      float64(rng.Intn(6)),
					isEnd:   rng.Intn(2) == 0,
					taskID:  id,
					retries: rng.Intn(3),
				}
				id++
				got.push(e)
				heap.Push(&want, e)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(event)
			if g != w {
				t.Fatalf("seed %d, pop %d: typed heap gave %+v, container/heap %+v", seed, pops, g, w)
			}
			pops++
		}
		for len(got) > 0 {
			g, w := got.pop(), heap.Pop(&want).(event)
			if g != w {
				t.Fatalf("seed %d, drain pop %d: typed heap gave %+v, container/heap %+v", seed, pops, g, w)
			}
			pops++
		}
		if want.Len() != 0 {
			t.Fatalf("seed %d: reference holds %d events after the typed heap drained", seed, want.Len())
		}
	}
}
