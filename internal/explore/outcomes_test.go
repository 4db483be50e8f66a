package explore_test

import (
	"testing"

	"repro/internal/censusd"
	"repro/internal/election"
	"repro/internal/explore"
	"repro/internal/objects"
	"repro/internal/sim"
)

// symmetricBuilders are the census protocols that declare a symmetry
// spec, each at a size whose census decides several distinct outcomes.
func symmetricBuilders(t *testing.T) map[string]explore.Builder {
	t.Helper()
	out := make(map[string]explore.Builder)
	for _, r := range []censusd.Request{
		{Protocol: "cas", K: 4, N: 3},
		{Protocol: "swap", N: 2}, // the audit refuses swap's spec at n=3
		{Protocol: "queue2"},
		{Protocol: "sticky", N: 3},
	} {
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		b, _, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		out[r.Protocol] = b
	}
	const k, n = 4, 3
	spec := election.DirectSymmetric(n)
	out["election"] = func() *sim.System {
		sys := sim.NewSystem()
		cas := objects.NewCAS("cas", k)
		sys.Add(cas)
		for _, m := range election.DirectCASMachines(cas, k, n) {
			sys.SpawnMachine(m)
		}
		sys.DeclareSymmetry(spec)
		return sys
	}
	return out
}

// TestOutcomeIDTablesMatchRenamers: after a symmetric census, the
// interner's per-permutation ID tables must agree with the
// canonicalizer's string renamers on every interned ID, and each
// inverse table must undo its forward table.
func TestOutcomeIDTablesMatchRenamers(t *testing.T) {
	for name, b := range symmetricBuilders(t) {
		t.Run(name, func(t *testing.T) {
			canon, keys, ren, inv := explore.OutcomeIDTables(b, explore.Options{MaxCrashes: 1})
			if canon == nil {
				t.Fatal("symmetry refused")
			}
			if len(keys) < 2 {
				t.Fatalf("census interned %d outcomes; want several to exercise renaming", len(keys))
			}
			if len(ren) != canon.NumPerms() || len(inv) != canon.NumPerms() {
				t.Fatalf("%d/%d ID tables for %d permutations", len(ren), len(inv), canon.NumPerms())
			}
			apply := func(row []int32, id int) int {
				if row == nil {
					return id
				}
				return int(row[id])
			}
			for k := 0; k < canon.NumPerms(); k++ {
				fwd, back := canon.OutcomeRenamer(k), canon.OutcomeRenamerInv(k)
				for id, key := range keys {
					want, wantInv := key, key
					if fwd != nil {
						want = fwd(key)
					}
					if back != nil {
						wantInv = back(key)
					}
					if got := keys[apply(ren[k], id)]; got != want {
						t.Fatalf("perm %d renames %s to %s, ID table says %s", k, key, want, got)
					}
					if got := keys[apply(inv[k], id)]; got != wantInv {
						t.Fatalf("inverse perm %d renames %s to %s, ID table says %s", k, key, wantInv, got)
					}
					if got := apply(inv[k], apply(ren[k], id)); got != id {
						t.Fatalf("perm %d: inverse∘forward maps %s to %s", k, key, keys[got])
					}
				}
			}
		})
	}
}

// TestStealCensusInternsConcurrently: two workers of a symmetric
// census under forced donation intern fresh outcome keys while each
// other read the ID tables; the census must still match the
// sequential one exactly.
func TestStealCensusInternsConcurrently(t *testing.T) {
	explore.ForceDonation(t)
	want := election.CensusDirect(4, 3, 0, explore.WithPrune())
	for _, name := range []string{"symmetry", "symmetry-sleepsets"} {
		tunes := []explore.Tune{explore.WithSymmetry(), explore.WithWorkers(2)}
		if name == "symmetry-sleepsets" {
			tunes = append(tunes, explore.WithSleepSets())
		}
		got := election.CensusDirect(4, 3, 0, tunes...)
		assertCensusEqual(t, name, got, want)
		if got.Prune == nil || !got.Prune.SymmetryOn || got.Prune.Donations == 0 {
			t.Fatalf("%s: census ran without symmetry or donations: %+v", name, got.Prune)
		}
	}
}
