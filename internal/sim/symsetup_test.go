package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/censusd"
	"repro/internal/sim"
)

// plainObj is a shared object with no symmetry folding support.
type plainObj struct{ name string }

func (o *plainObj) Name() string { return o.name }
func (o *plainObj) Apply(sim.ProcID, sim.OpKind, []sim.Value) (sim.Value, error) {
	return nil, nil
}

// TestNewCanonicalizerRefuses pins every structural refusal of
// NewCanonicalizer, error text included: the explorer surfaces the text
// verbatim as the census's "symmetry off" note.
func TestNewCanonicalizerRefuses(t *testing.T) {
	p := func(ids ...sim.ProcID) []sim.ProcID { return ids }
	full6 := sim.FullPerms(6)
	cases := []struct {
		name string
		sys  *sim.System
		spec *sim.Symmetry
		want string
	}{
		{"empty", symLoop(1, 3), &sim.Symmetry{},
			"sim: symmetry: empty permutation set"},
		{"length", symLoop(1, 3), &sim.Symmetry{Perms: [][]sim.ProcID{p(0, 1, 2), p(0, 1)}},
			"sim: symmetry: permutation 1 has length 2, system has 3 processes"},
		{"not-bijective", symLoop(1, 3), &sim.Symmetry{Perms: [][]sim.ProcID{p(0, 1, 2), p(0, 0, 2)}},
			"sim: symmetry: permutation 1 ([0 0 2]) is not a bijection of 0..2"},
		{"out-of-range", symLoop(1, 3), &sim.Symmetry{Perms: [][]sim.ProcID{p(0, 1, 2), p(0, 1, 3)}},
			"sim: symmetry: permutation 1 ([0 1 3]) is not a bijection of 0..2"},
		{"duplicate", symLoop(1, 3), &sim.Symmetry{Perms: [][]sim.ProcID{p(0, 1, 2), p(1, 0, 2), p(1, 0, 2)}},
			"sim: symmetry: duplicate permutation [1 0 2]"},
		{"identity-not-first", symLoop(1, 3), &sim.Symmetry{Perms: [][]sim.ProcID{p(1, 0, 2), p(0, 1, 2)}},
			"sim: symmetry: Perms[0] must be the identity, got [1 0 2]"},
		{"not-closed", symLoop(1, 3), &sim.Symmetry{Perms: [][]sim.ProcID{p(0, 1, 2), p(1, 2, 0)}},
			"sim: symmetry: permutation set not closed under composition ([1 2 0]∘[1 2 0] missing)"},
		{"not-closed-full6-minus-one", symLoop(1, 6), &sim.Symmetry{Perms: full6[:len(full6)-1]},
			"sim: symmetry: permutation set not closed under composition ([0 1 2 3 5 4]∘[4 5 3 2 1 0] missing)"},
		{"not-perm-folder", func() *sim.System {
			sys := sim.NewSystem()
			o := &plainObj{name: "plain"}
			sys.Add(o)
			sys.SpawnN(2, func(sim.ProcID) sim.Program {
				return func(e *sim.Env) (sim.Value, error) { return e.Apply0(o, sim.OpRead), nil }
			})
			return sys
		}(), &sim.Symmetry{Perms: sim.FullPerms(2)},
			`sim: symmetry: object "plain" does not implement PermStateFolder`},
		{"rename-to-non-object", symLoop(1, 3), &sim.Symmetry{
			Perms:        sim.FullPerms(3),
			RenameObject: func(name string, _ []sim.ProcID) string { return name + "x" },
		}, `sim: symmetry: RenameObject maps "a[0]" to "a[0]x", which is not an object of the system`},
		{"rename-not-injective", symLoop(1, 3), &sim.Symmetry{
			Perms:        sim.FullPerms(3),
			RenameObject: func(string, []sim.ProcID) string { return "c" },
		}, `sim: symmetry: RenameObject is not a bijection (two objects map to "c")`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := sim.NewCanonicalizer(tc.sys, tc.spec)
			if err == nil {
				t.Fatalf("accepted (|G| = %d), want refusal %q", c.NumPerms(), tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("refusal\n got %q\nwant %q", err.Error(), tc.want)
			}
		})
	}
}

// TestNewCanonicalizerAllocs gates the set-up cost at |G| = 720: the
// |G|² closure lookups must not allocate, leaving a per-permutation
// constant (the tables and the spec's own RenameObject strings).
func TestNewCanonicalizerAllocs(t *testing.T) {
	probe := symLoop(1, 6)
	spec := probe.SymmetrySpec()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sim.NewCanonicalizer(probe, spec); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 32 * float64(len(spec.Perms)); allocs >= limit {
		t.Fatalf("NewCanonicalizer at |G| = %d: %.0f allocs, want < %.0f", len(spec.Perms), allocs, limit)
	}
}

// registryBuilder builds a protocol exactly as the census registry
// behind cmd/explore and censusd does.
func registryBuilder(t *testing.T, r censusd.Request) func() *sim.System {
	t.Helper()
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	b, _, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIdentityViewFoldsIdentitySlot: a run under the audit twins'
// identity view folds the same identity-slot word as a run of the same
// schedule under the full canonicalizer.
func TestIdentityViewFoldsIdentitySlot(t *testing.T) {
	families := []struct {
		name  string
		build func() *sim.System
	}{
		{"cas-k5-n4", registryBuilder(t, censusd.Request{Protocol: "cas", K: 5, N: 4})},
		{"sticky-n4", registryBuilder(t, censusd.Request{Protocol: "sticky", N: 4})},
		{"swap-n2", registryBuilder(t, censusd.Request{Protocol: "swap", N: 2})},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			probe := fam.build()
			full, err := sim.NewCanonicalizer(probe, probe.SymmetrySpec())
			if err != nil {
				t.Fatalf("NewCanonicalizer: %v", err)
			}
			id := full.IdentityView()
			if id.NumPerms() != 1 {
				t.Fatalf("identity view has %d permutations, want 1", id.NumPerms())
			}
			rng := rand.New(rand.NewSource(0x1d))
			for trial := 0; trial < 50; trial++ {
				limit := rng.Intn(40)
				var picks []sim.ProcID
				rec := sim.SchedulerFunc(func(ready []sim.ProcID, _ int) sim.ProcID {
					if len(picks) >= limit {
						return sim.Halt
					}
					p := ready[rng.Intn(len(ready))]
					picks = append(picks, p)
					return p
				})
				replay := func(c *sim.Canonicalizer) uint64 {
					i := 0
					sched := sim.SchedulerFunc(func(ready []sim.ProcID, _ int) sim.ProcID {
						if i >= len(picks) {
							return sim.Halt
						}
						i++
						return picks[i-1]
					})
					sys := fam.build()
					if _, err := sys.Run(sim.Config{Scheduler: sched, Fingerprint: true, Canon: c}); err != nil {
						t.Fatalf("trial %d: run: %v", trial, err)
					}
					h, ok := sys.StateHashUnder(0)
					if !ok {
						t.Fatalf("trial %d: identity fold unavailable", trial)
					}
					return h
				}
				if _, err := fam.build().Run(sim.Config{Scheduler: rec}); err != nil {
					t.Fatalf("trial %d: recording run: %v", trial, err)
				}
				if hf, hi := replay(full), replay(id); hf != hi {
					t.Fatalf("trial %d: identity fold %#x under the full canonicalizer, %#x under the identity view (picks %v)",
						trial, hf, hi, picks)
				}
			}
		})
	}
}
