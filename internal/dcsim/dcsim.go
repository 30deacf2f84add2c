// Package dcsim implements the data-centre allocation simulator behind the
// paper's motivation study (Section II, Figure 1): it replays an allocation
// trace against two infrastructure models — a conventional ("fixed")
// data-centre of whole servers and a disaggregated one of separate compute
// and memory modules joined by a fully connected fabric — and measures the
// resource fragmentation index and the share of hardware that could be
// powered off.
//
// Both models use an online best-fit allocation policy without resource
// overcommitment, matching the paper's setup.
package dcsim

import "thymesisflow/internal/dctrace"

// DefaultServers matches the Google trace configuration the paper cites:
// 12555 servers for the fixed model, 12555 compute plus 12555 memory
// modules for the disaggregated one.
const DefaultServers = 12555

// DefaultLinksPerModule is the transceiver count the paper models per
// disaggregated module.
const DefaultLinksPerModule = 16

// Result aggregates the study's metrics for one model, time-averaged over
// the run.
type Result struct {
	// FragmentationCPU/Mem: fraction of the powered-on pool's resource that
	// is stranded (powered on but unused). Lower is better.
	FragmentationCPU float64
	FragmentationMem float64
	// OffCPU/OffMem: fraction of compute/memory units that are completely
	// unused and could be switched off. Higher is better. For the fixed
	// model both equal the fraction of idle whole servers.
	OffCPU float64
	OffMem float64
	// Rejected counts allocation requests that could not be placed.
	Rejected int
	Placed   int
}

// event is an arrival or departure in the replay.
type event struct {
	at      float64
	isEnd   bool
	taskID  int
	retries int
}

// retryDelay is how long an unplaceable request waits before the scheduler
// retries it (requests queue rather than vanish; the trace's tasks
// eventually run).
const retryDelay = 120.0

// maxRetries bounds the retry queue so a pathological task cannot stall the
// replay forever.
const maxRetries = 200

// eventHeap is a min-heap of events by time, departures first at one
// instant. push and pop are container/heap's Push and Pop specialised to
// event, so no event is boxed in an interface; their sift loops are
// container/heap's up and down as they are, with the same comparisons and
// swaps in the same order. Events that tie on (at, isEnd) therefore still
// pop in the order container/heap popped them, and the replay is
// unchanged (TestEventHeapMatchesContainerHeap).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	// Process departures before arrivals at the same instant.
	return h[i].isEnd && !h[j].isEnd
}

// push adds e to the heap.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the least event; the heap must not be empty.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2 // right child
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
}

// Model places and releases tasks.
type model interface {
	place(t dctrace.Task) bool
	release(t dctrace.Task)
	// snapshot returns (strandedCPU, totalOnCPU, strandedMem, totalOnMem,
	// offCPUUnits, offMemUnits, totalCPUUnits, totalMemUnits).
	snapshot() (sCPU, onCPU, sMem, onMem float64, offC, offM, totC, totM int)
}

// Run replays the trace against the model and returns metrics
// time-averaged over the steady-state window: from the 30th percentile of
// arrivals (warm-up excluded) to the last arrival (drain excluded).
func run(tasks []dctrace.Task, m model) Result {
	var events eventHeap
	byID := make(map[int]dctrace.Task, len(tasks))
	for _, t := range tasks {
		byID[t.ID] = t
		events.push(event{at: t.Arrive, taskID: t.ID})
	}
	warmStart, measureEnd := 0.0, 0.0
	if len(tasks) > 0 {
		// The pool only reaches steady state after about one mean task
		// lifetime of arrivals; measure from whichever is later, the 30th
		// arrival percentile or one mean duration in.
		var durSum float64
		for _, t := range tasks {
			durSum += t.End - t.Arrive
		}
		meanDur := durSum / float64(len(tasks))
		warmStart = tasks[len(tasks)*3/10].Arrive
		if w := tasks[0].Arrive + 1.25*meanDur; w > warmStart {
			warmStart = w
		}
		measureEnd = tasks[len(tasks)-1].Arrive
		if measureEnd <= warmStart {
			// Degenerate short traces: fall back to the full span.
			warmStart = tasks[0].Arrive
			measureEnd = tasks[len(tasks)-1].End
		}
	}
	placed := make(map[int]bool)
	var res Result
	var lastT float64
	var wFragC, wFragM, wOffC, wOffM, wTotal float64
	for len(events) > 0 {
		e := events.pop()
		// Clip the accounting segment [lastT, e.at] to the window.
		lo, hi := lastT, e.at
		if lo < warmStart {
			lo = warmStart
		}
		if hi > measureEnd {
			hi = measureEnd
		}
		if dt := hi - lo; dt > 0 {
			sCPU, onCPU, sMem, onMem, offC, offM, totC, totM := m.snapshot()
			if onCPU > 0 {
				wFragC += dt * sCPU / float64(totC)
			}
			if onMem > 0 {
				wFragM += dt * sMem / float64(totM)
			}
			wOffC += dt * float64(offC) / float64(totC)
			wOffM += dt * float64(offM) / float64(totM)
			wTotal += dt
		}
		lastT = e.at
		t := byID[e.taskID]
		if e.isEnd {
			if placed[t.ID] {
				m.release(t)
				placed[t.ID] = false
			}
			continue
		}
		if m.place(t) {
			placed[t.ID] = true
			res.Placed++
			dur := t.End - t.Arrive
			events.push(event{at: e.at + dur, isEnd: true, taskID: t.ID})
		} else if e.retries < maxRetries {
			events.push(event{at: e.at + retryDelay, taskID: t.ID, retries: e.retries + 1})
		} else {
			res.Rejected++
		}
	}
	if wTotal > 0 {
		res.FragmentationCPU = wFragC / wTotal
		res.FragmentationMem = wFragM / wTotal
		res.OffCPU = wOffC / wTotal
		res.OffMem = wOffM / wTotal
	}
	return res
}
