package bench

import "thymesisflow/internal/chaos"

// ChaosShards runs a fault-injection campaign across the worker pool, one
// scenario per cell. Every scenario builds its own sim.Kernel and derives
// its PRNG seeds from (campaign seed, scenario name), so the assembled
// report is byte-identical to a sequential run regardless of worker count
// or completion order — the same guarantee the figure runners give. Each
// scenario's cluster is partitioned into the given number of simulation
// shards (stacking intra-scenario parallelism on top of the scenario-level
// worker pool).
func (r *Runner) ChaosShards(scenarios []chaos.Scenario, seed int64, shards int) chaos.Report {
	rep := chaos.Report{Seed: seed, Passed: true}
	rep.Scenarios = make([]chaos.ScenarioReport, len(scenarios))
	r.run(len(scenarios), func(i int) {
		rep.Scenarios[i] = chaos.RunSharded(scenarios[i], seed, shards)
	})
	for _, sr := range rep.Scenarios {
		if !sr.Passed {
			rep.Passed = false
		}
	}
	return rep
}
