package metrics

import "fmt"

// PerfSample mirrors the Linux perf events the paper collects for the VoltDB
// profiling campaign (Section VI-D): instructions, cycles, task-clock,
// frontend and backend stall cycles. All values are accumulated over a
// measurement window; derived metrics follow perf's definitions.
type PerfSample struct {
	Instructions  int64 // retired instructions
	Cycles        int64 // CPU cycles consumed (busy cycles)
	StallFrontend int64 // cycles stalled in the frontend
	StallBackend  int64 // cycles stalled in the backend (memory, long ops)
	TaskClockPS   int64 // total on-CPU time across all threads, picoseconds
	WindowPS      int64 // measurement window wall time, picoseconds
}

// Add accumulates another sample into s.
func (s *PerfSample) Add(o PerfSample) {
	s.Instructions += o.Instructions
	s.Cycles += o.Cycles
	s.StallFrontend += o.StallFrontend
	s.StallBackend += o.StallBackend
	s.TaskClockPS += o.TaskClockPS
	if o.WindowPS > s.WindowPS {
		s.WindowPS = o.WindowPS
	}
}

// ThreadIPC returns retired instructions per busy cycle (single-thread IPC).
func (s *PerfSample) ThreadIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// UtilizedCores returns the average number of CPU cores occupied during the
// window (perf's task-clock / wall-clock), the paper's "UCC" metric.
func (s *PerfSample) UtilizedCores() float64 {
	if s.WindowPS == 0 {
		return 0
	}
	return float64(s.TaskClockPS) / float64(s.WindowPS)
}

// PackageIPC returns the paper's "average IPC across the whole CPU package":
// single-thread IPC multiplied by the average utilized cores.
func (s *PerfSample) PackageIPC() float64 {
	return s.ThreadIPC() * s.UtilizedCores()
}

// BackendStallFraction returns the fraction of busy cycles that were
// backend stalls (waiting for memory or long-latency instructions).
func (s *PerfSample) BackendStallFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.StallBackend) / float64(s.Cycles)
}

// String renders the derived metrics.
func (s *PerfSample) String() string {
	return fmt.Sprintf("IPC(thread)=%.2f IPC(pkg)=%.2f UCC=%.2f backend-stall=%.1f%%",
		s.ThreadIPC(), s.PackageIPC(), s.UtilizedCores(), 100*s.BackendStallFraction())
}
