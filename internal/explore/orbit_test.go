package explore_test

import (
	"context"
	"testing"

	"repro/internal/consensus"
	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/objects"
	"repro/internal/sim"
)

// TestOrbitSkipsSymmetricRoots: a parallel symmetric census must skip
// symmetric frontier roots at generation time — OrbitSkips > 0 on the
// fully symmetric protocols — while every census number stays
// bit-identical to the plain unreduced walk (the orbit credit is the
// same renamed-summary translation a table hit performs, applied
// before the root is ever enqueued).
func TestOrbitSkipsSymmetricRoots(t *testing.T) {
	protocols := []struct {
		name string
		run  func(tunes ...explore.Tune) *explore.Census
	}{
		{"election-direct-cas", func(tunes ...explore.Tune) *explore.Census {
			return election.CensusDirect(4, 3, 0, tunes...)
		}},
		{"consensus-cas", func(tunes ...explore.Tune) *explore.Census {
			return consensus.CensusCAS(3, 2, 0, tunes...)
		}},
		// The queue census is deliberately absent: its post-prefix
		// states carry order-sensitive queue contents, so frontier
		// roots rarely share an orbit — bit-identity for it is pinned
		// by TestReducedCensusMatchesUnreduced instead.
	}
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			want := p.run() // plain replay walk: ground truth
			got := p.run(explore.WithSymmetry(), explore.WithWorkers(4))
			assertCensusEqual(t, "orbit", got, want)
			st := got.Prune
			if st == nil || !st.SymmetryOn {
				t.Fatalf("symmetric parallel census has no active symmetry stats: %+v", st)
			}
			if st.OrbitSkips == 0 {
				t.Fatal("fully symmetric frontier produced zero orbit skips")
			}
			t.Logf("orbit skips: %d (hits %d, sym hits %d)", st.OrbitSkips, st.Hits, st.SymmetryHits)
		})
	}
}

// symmetricCASBuilder is a 2-process CAS consensus builder with its
// symmetry spec declared — the smallest protocol whose frontier has
// nontrivial orbits — for the DistPlan tests below.
func symmetricCASBuilder() explore.Builder {
	props := []sim.Value{100, 101}
	spec := consensus.CASSymmetric(2)
	return func() *sim.System {
		sys := sim.NewSystem()
		cas := objects.NewCAS("cas", 3)
		sys.Add(cas)
		for _, m := range consensus.CASMachines(sys, cas, props) {
			sys.SpawnMachine(m)
		}
		sys.DeclareSymmetry(spec)
		return sys
	}
}

// TestDistPlanOrbitSkips: under a resolved symmetry spec the
// distributable root set must shrink to orbit representatives, and
// merging only their summaries must still reproduce the full census
// bit for bit — the distributed form of orbit-aware generation, where
// no shared transposition table exists to fold twins later.
func TestDistPlanOrbitSkips(t *testing.T) {
	b := symmetricCASBuilder()
	opts := explore.Options{MaxCrashes: 1, Workers: 2}
	want := explore.Run(b, opts, nil)

	symOpts := opts
	symOpts.Symmetry = true
	plan, ok := explore.NewDistPlan(b, symOpts, nil)
	if !ok {
		t.Fatal("exploration did not split")
	}
	plain, ok := explore.NewDistPlan(b, opts, nil)
	if !ok {
		t.Fatal("plain exploration did not split")
	}
	if len(plan.Roots()) >= len(plain.Roots()) {
		t.Fatalf("orbit plan hands out %d roots, plain plan %d — no generation-time skips",
			len(plan.Roots()), len(plain.Roots()))
	}

	done := make(map[int]explore.RootSummary)
	for _, root := range plan.Roots() {
		sum, _, err := explore.ExploreSubtree(context.Background(), b, symOpts, nil,
			plan.Prefix(root), explore.Checkpoint{}, nil)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		done[root] = sum
	}
	got := plan.Merge(done, nil)
	assertCensusCountsEqual(t, "orbit-dist", got, want)
	if got.Prune == nil || got.Prune.OrbitSkips == 0 {
		t.Fatalf("orbit merge reported no skips: %+v", got.Prune)
	}
	t.Logf("dist roots %d -> %d, orbit skips %d",
		len(plain.Roots()), len(plan.Roots()), got.Prune.OrbitSkips)
}

// TestDistPlanOrbitRepFailure: a twin whose representative was lost
// must degrade exactly like the representative itself — a coverage
// deficit, never a silently wrong count and never a spurious
// cancellation.
func TestDistPlanOrbitRepFailure(t *testing.T) {
	b := symmetricCASBuilder()
	opts := explore.Options{MaxCrashes: 1, Workers: 2, Symmetry: true}
	plan, ok := explore.NewDistPlan(b, opts, nil)
	if !ok {
		t.Fatal("exploration did not split")
	}
	roots := plan.Roots()
	done := make(map[int]explore.RootSummary)
	for _, root := range roots[1:] {
		sum, _, err := explore.ExploreSubtree(context.Background(), b, opts, nil,
			plan.Prefix(root), explore.Checkpoint{}, nil)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		done[root] = sum
	}
	failed := map[int]explore.RootFailure{
		roots[0]: {Prefix: plan.Prefix(roots[0]), Attempts: 3, Err: "lost"},
	}
	c := plan.Merge(done, failed)
	if c.Exhaustive || c.Cancelled {
		t.Fatalf("failed-rep merge: exhaustive=%v cancelled=%v, want false/false", c.Exhaustive, c.Cancelled)
	}
	if len(c.Errors) != 1 {
		t.Fatalf("failed-rep merge recorded %d errors, want 1", len(c.Errors))
	}
}
