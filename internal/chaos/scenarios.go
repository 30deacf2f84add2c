package chaos

import (
	"fmt"

	"thymesisflow/internal/llc"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// forever is an effectively unbounded window end.
const forever = sim.Time(1) << 62

// smallWindowLLC is the shrunken credit configuration used to provoke
// starvation quickly: a 2-slot window — smaller than the worker count, so
// senders must stall on backpressure.
func smallWindowLLC() *llc.Config {
	cfg := llc.DefaultConfig()
	cfg.Credits = 2
	return &cfg
}

// fastEscalationLLC shortens the retry budget so dead-link scenarios
// escalate within tens of microseconds of virtual time.
func fastEscalationLLC() *llc.Config {
	cfg := llc.DefaultConfig()
	cfg.ReplayTimeout = 5 * sim.Microsecond
	cfg.MaxReplayAttempts = 8
	return &cfg
}

// Catalogue returns the standard scenario set, covering every fault class
// the LLC claims to survive plus the escalation and detach paths it fences
// with. Order is the execution order of serial campaigns; results do not
// depend on it (per-scenario seeds derive from the scenario name).
func Catalogue() []Scenario {
	scenarios := []Scenario{
		{
			Name:        "baseline-clean",
			Description: "fault-free reference run; protocol must stay silent",
		},
		{
			Name:        "crc-burst",
			Description: "transient CRC burst (80% corruption for 100us) from a marginal transceiver",
			Faults: &phy.FaultSchedule{Windows: []phy.Window{
				{From: 50 * sim.Microsecond, To: 150 * sim.Microsecond, CorruptProb: 0.8},
			}},
			ExpectCRCErrors: true,
			ExpectReplays:   true,
		},
		{
			Name:        "link-flap",
			Description: "two total-loss flaps (100us each), shorter than the escalation budget",
			Faults: &phy.FaultSchedule{Windows: []phy.Window{
				{From: 100 * sim.Microsecond, To: 200 * sim.Microsecond, DropProb: 1},
				{From: 400 * sim.Microsecond, To: 500 * sim.Microsecond, DropProb: 1},
			}},
			ExpectDrops:   true,
			ExpectReplays: true,
		},
		{
			Name:        "credit-starvation",
			Description: "2-slot credit window under 50% bidirectional loss; probe cycle repairs lost returns",
			LLC:         smallWindowLLC(),
			Faults: &phy.FaultSchedule{Windows: []phy.Window{
				{From: 20 * sim.Microsecond, To: 220 * sim.Microsecond, DropProb: 0.5},
			}},
			ExpectDrops:   true,
			ExpectReplays: true,
			ExpectStalls:  true,
		},
		{
			Name:        "replay-storm",
			Description: "sustained 30% drop + 30% corruption for 300us; replay machinery under combined stress",
			Faults: &phy.FaultSchedule{Windows: []phy.Window{
				{From: 10 * sim.Microsecond, To: 310 * sim.Microsecond, DropProb: 0.3, CorruptProb: 0.3},
			}},
			ExpectDrops:     true,
			ExpectCRCErrors: true,
			ExpectReplays:   true,
		},
		{
			Name:        "detach-drain",
			Description: "graceful detach at 30us under load: outstanding ops drain, new ops rejected",
			Detach:      DetachDrain,
			DetachAt:    30 * sim.Microsecond,

			ExpectDetached: true,
		},
		{
			Name:        "detach-force",
			Description: "forced detach at 30us under load: outstanding ops faulted deterministically",
			Detach:      DetachForce,
			DetachAt:    30 * sim.Microsecond,

			ExpectDetached: true,
		},
		{
			Name:        "link-down-escalation",
			Description: "link dies permanently at 50us; bounded retries then fence, outstanding ops faulted",
			LLC:         fastEscalationLLC(),
			Faults: &phy.FaultSchedule{Windows: []phy.Window{
				{From: 50 * sim.Microsecond, To: forever, DropProb: 1},
			}},
			ExpectDrops:    true,
			ExpectLinkDown: true,
		},
	}
	// Sustained-loss sweep: three loss levels record the latency/bandwidth
	// degradation curve of the replay protocol.
	for _, pct := range []int{2, 5, 10} {
		scenarios = append(scenarios, Scenario{
			Name:        fmt.Sprintf("sustained-loss-%dpct", pct),
			Description: fmt.Sprintf("steady %d%% frame loss over the whole run", pct),
			Faults: &phy.FaultSchedule{
				Base: phy.FaultConfig{DropProb: float64(pct) / 100},
			},
			ExpectDrops:   true,
			ExpectReplays: true,
		})
	}
	return scenarios
}

// Select returns the scenarios a campaign runs: both whole catalogues when
// name is empty, otherwise the one datapath or control-plane scenario so
// named. An unknown name is an error.
func Select(name string) ([]Scenario, []CPScenario, error) {
	if name == "" {
		return Catalogue(), CPCatalogue(), nil
	}
	for _, s := range Catalogue() {
		if s.Name == name {
			return []Scenario{s}, nil, nil
		}
	}
	for _, s := range CPCatalogue() {
		if s.Name == name {
			return nil, []CPScenario{s}, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown chaos scenario %q", name)
}
