package ycsb

// ReadIntensive reports whether the workload is >95% reads/scans — the
// grouping the paper uses when discussing Figure 6, which the mix tests
// check the catalogue against.
func (w Workload) ReadIntensive() bool {
	switch w {
	case WorkloadB, WorkloadC, WorkloadD, WorkloadE:
		return true
	}
	return false
}
