package explore_test

import (
	"errors"
	"testing"

	"repro/internal/censusd"
	"repro/internal/consensus"
	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/objects"
	"repro/internal/sim"
)

func assertCensusEqual(t *testing.T, label string, got, want *explore.Census) {
	t.Helper()
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
		got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive {
		t.Fatalf("%s: census %d/%d viol=%d ex=%v, want %d/%d viol=%d ex=%v",
			label, got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive,
			want.Complete, want.Incomplete, want.ViolationRuns, want.Exhaustive)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s: outcome histogram %v, want %v", label, got.Outcomes, want.Outcomes)
	}
	for k, v := range want.Outcomes {
		if got.Outcomes[k] != v {
			t.Fatalf("%s: outcome histogram %v, want %v", label, got.Outcomes, want.Outcomes)
		}
	}
	if (len(got.Violations) == 0) != (len(want.Violations) == 0) {
		t.Fatalf("%s: recorded %d violation reps, want %d", label, len(got.Violations), len(want.Violations))
	}
}

// TestReducedCensusMatchesUnreduced is the fast-tier soundness smoke
// for the schedule-space reducers: symmetry folding and sleep-set table
// credit must leave every census number bit-identical to the plain
// unpruned walk — on both election families and CAS consensus,
// sequentially and under forced-donation work stealing. It also pins
// the perf claim's direction: symmetry must strictly cut table probes
// on these fully symmetric protocols.
func TestReducedCensusMatchesUnreduced(t *testing.T) {
	explore.ForceDonation(t)
	protocols := []struct {
		name string
		run  func(tunes ...explore.Tune) *explore.Census
	}{
		{"election-direct-cas", func(tunes ...explore.Tune) *explore.Census {
			return election.CensusDirect(4, 3, 0, tunes...)
		}},
		{"election-direct-rmw", func(tunes ...explore.Tune) *explore.Census {
			return election.CensusRMW(4, 3, 0, tunes...)
		}},
		{"consensus-cas", func(tunes ...explore.Tune) *explore.Census {
			return consensus.CensusCAS(3, 2, 0, tunes...)
		}},
		{"consensus-tas", func(tunes ...explore.Tune) *explore.Census {
			return consensus.CensusTAS(0, tunes...)
		}},
		{"consensus-queue", func(tunes ...explore.Tune) *explore.Census {
			return consensus.CensusQueue(0, tunes...)
		}},
		{"consensus-stickybit", func(tunes ...explore.Tune) *explore.Census {
			return consensus.CensusStickyBit(3, 0, tunes...)
		}},
	}
	reducers := []struct {
		name  string
		tunes []explore.Tune
	}{
		{"symmetry", []explore.Tune{explore.WithSymmetry()}},
		{"sleepsets", []explore.Tune{explore.WithSleepSets()}},
		{"both", []explore.Tune{explore.WithSymmetry(), explore.WithSleepSets()}},
	}
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			want := p.run()                     // plain replay walk: ground truth
			plain := p.run(explore.WithPrune()) // pruning only: probe baseline
			assertCensusEqual(t, "pruned", plain, want)
			if plain.Prune == nil || plain.Prune.Probes == 0 {
				t.Fatal("pruned baseline reported no probes")
			}
			for _, r := range reducers {
				got := p.run(r.tunes...)
				assertCensusEqual(t, r.name, got, want)
				st := got.Prune
				if st == nil {
					t.Fatalf("%s: reduced census has no Prune stats", r.name)
				}
				hasSym := false
				for _, tn := range r.tunes {
					// Compare by effect, not name: symmetry runs must report
					// SymmetryOn and land hits on these symmetric protocols.
					got := explore.Options{}.With(tn)
					hasSym = hasSym || got.Symmetry
				}
				if hasSym {
					if !st.SymmetryOn {
						t.Fatalf("%s: symmetry requested but off: %q", r.name, st.SymmetryNote)
					}
					if st.SymmetryHits == 0 {
						t.Fatalf("%s: symmetry on but zero canonical hits", r.name)
					}
					if st.Probes >= plain.Prune.Probes {
						t.Fatalf("%s: %d probes, not fewer than plain pruning's %d",
							r.name, st.Probes, plain.Prune.Probes)
					}
				}
				par := p.run(append([]explore.Tune{explore.WithWorkers(4)}, r.tunes...)...)
				assertCensusEqual(t, r.name+"-workers4", par, want)
			}
		})
	}
}

// asymmetricBuilder declares full 2-process symmetry over a protocol
// that is NOT symmetric: proc 0 and proc 1 swap in different values and
// decide differently. The audit must refuse the spec.
func asymmetricBuilder() *sim.System {
	sys := sim.NewSystem()
	sw := objects.NewSwap("sw", nil)
	sys.Add(sw)
	for i := 0; i < 2; i++ {
		i := i
		sys.Spawn(func(e *sim.Env) (sim.Value, error) {
			if i == 0 {
				e.Apply1(sw, objects.OpSwap, 7)
				return 0, nil
			}
			prev := e.Apply1(sw, objects.OpSwap, 8)
			if prev == nil {
				return 1, nil
			}
			return 2, nil
		})
	}
	// Deliberately wrong: claims the procs are interchangeable with no
	// value renaming at all.
	sys.DeclareSymmetry(&sim.Symmetry{Perms: sim.FullPerms(2)})
	return sys
}

// TestSymmetryRefusesAsymmetricProtocol: a bogus symmetry declaration
// must not silently corrupt the census. The audit rejects it, the walk
// falls back to plain pruning with a diagnostic note, and the numbers
// still match the unreduced walk.
func TestSymmetryRefusesAsymmetricProtocol(t *testing.T) {
	check := func(res *sim.Result) error { return nil }
	want := explore.Run(asymmetricBuilder, explore.Options{}, check)
	got := explore.Run(asymmetricBuilder, explore.Options{Symmetry: true}, check)
	assertCensusEqual(t, "refused-symmetry", got, want)
	st := got.Prune
	if st == nil {
		t.Fatal("no Prune stats on symmetry-requested census")
	}
	if st.SymmetryOn {
		t.Fatal("audit accepted an asymmetric protocol's symmetry declaration")
	}
	if st.SymmetryNote == "" {
		t.Fatal("symmetry refusal carries no diagnostic note")
	}
	if st.SymmetryHits != 0 {
		t.Fatalf("symmetry off but %d hits recorded", st.SymmetryHits)
	}
	t.Logf("refusal note: %s", st.SymmetryNote)
}

// TestSymmetryRefusesUnauditedSpec: when every audited schedule ends
// in a protocol error the audit compares no renamed run, so it has no
// evidence for the declared symmetry. The walk must fall back to plain
// pruning with a note, and the numbers must match the unreduced walk.
func TestSymmetryRefusesUnauditedSpec(t *testing.T) {
	fail := errors.New("protocol failed")
	b := func() *sim.System {
		sys := sim.NewSystem()
		sw := objects.NewSwap("sw", nil)
		sys.Add(sw)
		sys.SpawnN(2, func(sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				e.Apply1(sw, objects.OpSwap, 1)
				return nil, fail
			}
		})
		sys.DeclareSymmetry(&sim.Symmetry{Perms: sim.FullPerms(2)})
		return sys
	}
	check := func(res *sim.Result) error { return nil }
	want := explore.Run(b, explore.Options{}, check)
	got := explore.Run(b, explore.Options{Symmetry: true}, check)
	assertCensusEqual(t, "unaudited-symmetry", got, want)
	const note = "symmetry off: symmetry audit: every audited schedule ended in a protocol error; no renamed run was compared"
	if got.Prune == nil || got.Prune.SymmetryOn || got.Prune.SymmetryNote != note {
		t.Fatalf("unaudited symmetry must degrade with note %q, got %+v", note, got.Prune)
	}
}

// TestAuditSymmetryVerdictsPinned pins the audit's verdict, refusal
// text included, at the explorer's audit size on the registry's
// symmetric censuses and on asymmetricBuilder.
func TestAuditSymmetryVerdictsPinned(t *testing.T) {
	registry := func(r censusd.Request) explore.Builder {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		b, _, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name  string
		build explore.Builder
		want  string // "" = accepted
	}{
		{"cas-k7-n6", registry(censusd.Request{Protocol: "cas", K: 7, N: 6}), ""},
		{"sticky-n4", registry(censusd.Request{Protocol: "sticky", N: 4}), ""},
		{"queue2", registry(censusd.Request{Protocol: "queue2"}), ""},
		{"swap-n3", registry(censusd.Request{Protocol: "swap", N: 3}),
			"symmetry audit: state fold mismatch under [0 2 1] (round 0): the spec's renamers do not match the protocol"},
		{"asymmetric", asymmetricBuilder,
			"symmetry audit: state fold mismatch under [1 0] (round 0): the spec's renamers do not match the protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := tc.build()
			c, err := sim.NewCanonicalizer(probe, probe.SymmetrySpec())
			if err != nil {
				t.Fatalf("NewCanonicalizer: %v", err)
			}
			got := ""
			if err := sim.AuditSymmetry(tc.build, c, explore.SymmetryAuditRounds, explore.SymmetryAuditSteps); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("audit verdict\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestSymmetryRefusesUndeclared: requesting symmetry on a builder that
// declares no spec degrades to plain pruning with a note, never an
// error.
func TestSymmetryRefusesUndeclared(t *testing.T) {
	b := func() *sim.System {
		sys := sim.NewSystem()
		sw := objects.NewSwap("sw", nil)
		sys.Add(sw)
		sys.Spawn(func(e *sim.Env) (sim.Value, error) {
			e.Apply1(sw, objects.OpSwap, 1)
			return 0, nil
		})
		return sys
	}
	check := func(res *sim.Result) error { return nil }
	got := explore.Run(b, explore.Options{Symmetry: true}, check)
	if got.Prune == nil || got.Prune.SymmetryOn || got.Prune.SymmetryNote == "" {
		t.Fatalf("undeclared symmetry must degrade with a note, got %+v", got.Prune)
	}
}
