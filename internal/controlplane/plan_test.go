package controlplane

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"thymesisflow/internal/graphdb"
)

// The oracle below is the path planner as it stood before the transceiver
// index and the single-search ShortestPath: a label scan for the
// transceivers of an endpoint, and one breadth-first search per candidate
// destination, each running until it reaches that destination. It reads the
// graph only through its public API, so it stays independent of the
// store's adjacency layout.

// oracleTransceivers scans every transceiver vertex for the endpoint's.
func oracleTransceivers(m *Model, host, role string) []graphdb.ID {
	var out []graphdb.ID
	for _, id := range m.g.VerticesByLabel(LabelTransceiver) {
		v, _ := m.g.Vertex(id)
		if v.Props["host"] == host && v.Props["role"] == role {
			out = append(out, id)
		}
	}
	return out
}

// oracleShortestPath is a minimum-hop search from one vertex to one
// destination, visiting neighbours in ID order.
func oracleShortestPath(g *graphdb.Graph, from, to graphdb.ID, filter func(graphdb.Edge) bool) ([]graphdb.ID, bool) {
	if _, found := g.Vertex(from); !found {
		return nil, false
	}
	if from == to {
		return []graphdb.ID{from}, true
	}
	prev := map[graphdb.ID]graphdb.ID{from: from}
	queue := []graphdb.ID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range g.Neighbors(cur) {
			if _, seen := prev[n]; seen {
				continue
			}
			e, _ := g.EdgeBetween(cur, n)
			if filter != nil && !filter(e) {
				continue
			}
			prev[n] = cur
			if n == to {
				var rev []graphdb.ID
				for at := to; at != from; at = prev[at] {
					rev = append(rev, at)
				}
				rev = append(rev, from)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev, true
			}
			queue = append(queue, n)
		}
	}
	return nil, false
}

func oracleFindPath(m *Model, computeHost, donorHost string, tentative map[graphdb.ID]bool) (Path, error) {
	free := func(id graphdb.ID) bool {
		if tentative[id] {
			return false
		}
		v, ok := m.g.Vertex(id)
		if !ok {
			return false
		}
		r, _ := v.Props["reserved"].(bool)
		return !r
	}
	for _, src := range oracleTransceivers(m, computeHost, LabelComputeEP) {
		if !free(src) {
			continue
		}
		for _, dst := range oracleTransceivers(m, donorHost, LabelMemoryEP) {
			if !free(dst) {
				continue
			}
			path, ok := oracleShortestPath(m.g, src, dst, func(e graphdb.Edge) bool {
				if e.Label != EdgeLink {
					return false
				}
				return free(e.A) && free(e.B)
			})
			if ok {
				return Path{Vertices: path}, nil
			}
		}
	}
	return Path{}, fmt.Errorf("no available path %s -> %s", computeHost, donorHost)
}

func oraclePlanChannels(m *Model, computeHost, donorHost string, channels int) ([]Path, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("controlplane: %d channels requested", channels)
	}
	reservedNow := make(map[graphdb.ID]bool)
	var paths []Path
	for c := 0; c < channels; c++ {
		path, err := oracleFindPath(m, computeHost, donorHost, reservedNow)
		if err != nil {
			return nil, fmt.Errorf("controlplane: channel %d of %d: %w", c+1, channels, err)
		}
		for _, id := range path.Vertices {
			reservedNow[id] = true
		}
		paths = append(paths, path)
	}
	m.ReservePaths(paths)
	return paths, nil
}

// randomPlanModel builds a seeded topology: 2-8 hosts with 1-6
// transceivers per endpoint, cabled as a full mesh, at random, or both,
// sometimes with switch crossbars cabled to random transceivers so that
// multi-hop paths exist, and with a random set of elements pre-reserved.
// The same seed always builds the same model.
func randomPlanModel(seed int64) (*Model, []string) {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	hosts := make([]string, 2+rng.Intn(7))
	per := 1 + rng.Intn(6)
	var xcvrs []graphdb.ID
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i)
		if err := m.AddHost(hosts[i], per); err != nil {
			panic(err)
		}
		xcvrs = append(xcvrs, m.Transceivers(hosts[i], LabelComputeEP)...)
		xcvrs = append(xcvrs, m.Transceivers(hosts[i], LabelMemoryEP)...)
	}
	if rng.Intn(3) == 0 {
		if err := m.CableFullMesh(); err != nil {
			panic(err)
		}
	}
	pick := func() graphdb.ID { return xcvrs[rng.Intn(len(xcvrs))] }
	// Duplicate and self cables are refused; the refusal is part of the
	// seeded sequence and identical for both copies of the model.
	for n := rng.Intn(3 * len(xcvrs)); n > 0; n-- {
		m.Cable(pick(), pick()) //nolint:errcheck
	}
	elements := append([]graphdb.ID(nil), xcvrs...)
	for s := rng.Intn(3); s > 0; s-- {
		ports, err := m.AddSwitch(fmt.Sprintf("sw%d", s), 2+rng.Intn(5))
		if err != nil {
			panic(err)
		}
		for _, p := range ports {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				m.Cable(p, pick()) //nolint:errcheck
			}
		}
		elements = append(elements, ports...)
	}
	var reserved []graphdb.ID
	for _, id := range elements {
		if rng.Intn(4) == 0 {
			reserved = append(reserved, id)
		}
	}
	m.ReservePaths([]Path{{Vertices: reserved}})
	return m, hosts
}

// TestPlanChannelsMatchesPerDestinationOracle checks the index-backed,
// one-search-per-source planner against the per-destination oracle over
// seeded random models: both must return identical paths or both fail with
// the same error, and leave identical reservations behind.
func TestPlanChannelsMatchesPerDestinationOracle(t *testing.T) {
	const models = 300
	const requests = 12
	plans, failures, multiHop := 0, 0, 0
	for seed := int64(1); seed <= models; seed++ {
		got, hosts := randomPlanModel(seed)
		want, _ := randomPlanModel(seed)
		for _, h := range hosts {
			for _, role := range []string{LabelComputeEP, LabelMemoryEP} {
				if a, b := got.Transceivers(h, role), oracleTransceivers(want, h, role); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: Transceivers(%s, %s) = %v, scan finds %v", seed, h, role, a, b)
				}
			}
		}
		rng := rand.New(rand.NewSource(seed * 7919))
		var live [][]Path
		for r := 0; r < requests; r++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				got.ReleasePaths(live[i])
				want.ReleasePaths(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			c, d := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			channels := 1 + rng.Intn(3)
			gp, gerr := got.PlanChannels(c, d, channels)
			wp, werr := oraclePlanChannels(want, c, d, channels)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("seed %d request %d (%s->%s x%d): error %v, oracle %v", seed, r, c, d, channels, gerr, werr)
			}
			if !reflect.DeepEqual(gp, wp) {
				t.Fatalf("seed %d request %d (%s->%s x%d): paths %v, oracle %v", seed, r, c, d, channels, gp, wp)
			}
			if gerr == nil {
				plans++
				live = append(live, gp)
				for _, p := range gp {
					if len(p.Vertices) > 2 {
						multiHop++
					}
				}
			} else {
				failures++
			}
			if a, b := got.ReservedIDs(), want.ReservedIDs(); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d request %d: reserved %v, oracle %v", seed, r, a, b)
			}
		}
	}
	// Both outcomes, and paths through intermediate elements, must be
	// exercised for the comparison to mean anything.
	if plans < models || failures < models || multiHop < models {
		t.Fatalf("%d plans (%d multi-hop paths) and %d failures over %d models; the generator lost coverage",
			plans, multiHop, failures, models)
	}
}

// churnShapedModel is the churn benchmark's fabric: 8 hosts with 32
// transceivers per endpoint, cabled as a full mesh, with a seeded half of
// the transceivers reserved.
func churnShapedModel(tb testing.TB) (*Model, []string) {
	tb.Helper()
	m := NewModel()
	hosts := make([]string, 8)
	var xcvrs []graphdb.ID
	for i := range hosts {
		hosts[i] = fmt.Sprintf("churn%02d", i)
		if err := m.AddHost(hosts[i], 32); err != nil {
			tb.Fatal(err)
		}
		xcvrs = append(xcvrs, m.Transceivers(hosts[i], LabelComputeEP)...)
		xcvrs = append(xcvrs, m.Transceivers(hosts[i], LabelMemoryEP)...)
	}
	if err := m.CableFullMesh(); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(xcvrs), func(i, j int) { xcvrs[i], xcvrs[j] = xcvrs[j], xcvrs[i] })
	m.ReservePaths([]Path{{Vertices: xcvrs[:len(xcvrs)/2]}})
	return m, hosts
}

// TestPlanSequencePinned pins every path the planner chooses over a seeded
// sequence of PlanChannels and ReleasePaths calls on the churn-shaped
// model, with random transceivers reserved and freed between calls. One-
// and two-channel requests both run, so the second channel's search must
// avoid the first one's vertices. The oracle test above compares the
// planner with a reference within one build; this hash holds the choices
// themselves across commits, so a search rewrite that picks a different
// (still valid) path fails here. A change that alters the choices on
// purpose must update the hash.
func TestPlanSequencePinned(t *testing.T) {
	const want = "f0d8b68912fe6ab9de71b49ac75c3ace6402bed565cc204d0a3ed5606d5f964d"
	m, hosts := churnShapedModel(t)
	var xcvrs []graphdb.ID
	for _, h := range hosts {
		xcvrs = append(xcvrs, m.Transceivers(h, LabelComputeEP)...)
		xcvrs = append(xcvrs, m.Transceivers(h, LabelMemoryEP)...)
	}
	rng := rand.New(rand.NewSource(29))
	sum := sha256.New()
	var live [][]Path
	plans, failures, multiHop := 0, 0, 0
	for cycle := 0; cycle < 400; cycle++ {
		for k := rng.Intn(4); k > 0; k-- {
			flip := []Path{{Vertices: []graphdb.ID{xcvrs[rng.Intn(len(xcvrs))]}}}
			if rng.Intn(2) == 0 {
				m.ReservePaths(flip)
			} else {
				m.ReleasePaths(flip)
			}
		}
		if len(live) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			m.ReleasePaths(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		c, d := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		channels := 1 + rng.Intn(2)
		paths, err := m.PlanChannels(c, d, channels)
		fmt.Fprintf(sum, "%d %s->%s x%d: %v %v\n", cycle, c, d, channels, paths, err)
		if err != nil {
			failures++
			continue
		}
		plans++
		live = append(live, paths)
		for _, p := range paths {
			if len(p.Vertices) > 2 {
				multiHop++
			}
		}
	}
	// Successes, failures and multi-hop paths must all be in the sequence
	// for the hash to pin anything about them.
	if plans < 200 || failures < 50 || multiHop < 40 {
		t.Fatalf("%d plans (%d multi-hop paths) and %d failures; the sequence lost coverage", plans, multiHop, failures)
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != want {
		t.Fatalf("plan sequence hash = %s, want %s", got, want)
	}
}

// planAllocBudget is the regression ceiling for one PlanChannels call plus
// the ReleasePaths that undoes it on the churn-shaped model: the result
// slices, the candidate target list, and the undo logs of the two
// reservation transactions. The searches reuse pooled scratch, so nothing
// is allocated per source searched or per vertex visited.
const planAllocBudget = 12

// TestPlanChannelsAllocs pins the allocation count of one planned and
// released channel.
func TestPlanChannelsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	m, hosts := churnShapedModel(t)
	allocs := testing.AllocsPerRun(200, func() {
		paths, err := m.PlanChannels(hosts[0], hosts[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		m.ReleasePaths(paths)
	})
	if allocs > planAllocBudget {
		t.Fatalf("PlanChannels+ReleasePaths allocated %.1f times, budget %d", allocs, planAllocBudget)
	}
}

// BenchmarkPlanChannels plans and releases one channel per iteration on the
// churn-shaped model, cycling through every ordered host pair.
func BenchmarkPlanChannels(b *testing.B) {
	m, hosts := churnShapedModel(b)
	var pairs [][2]string
	for _, c := range hosts {
		for _, d := range hosts {
			if c != d {
				pairs = append(pairs, [2]string{c, d})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		paths, err := m.PlanChannels(p[0], p[1], 1)
		if err != nil {
			b.Fatal(err)
		}
		m.ReleasePaths(paths)
	}
}
