package explore

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// forceDonation makes every steal pool report hungry for the duration
// of the test, so busy engines donate at every backtrack — the maximal
// stealing churn the exactness argument has to survive.
func forceDonation(t *testing.T) {
	t.Helper()
	stealForceHungry = true
	t.Cleanup(func() { stealForceHungry = false })
}

func sameCensus(t *testing.T, label string, got, want *Census) {
	t.Helper()
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
		got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive {
		t.Fatalf("%s census %d/%d viol=%d ex=%v, want %d/%d viol=%d ex=%v",
			label, got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive,
			want.Complete, want.Incomplete, want.ViolationRuns, want.Exhaustive)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s outcome histogram %v, want %v", label, got.Outcomes, want.Outcomes)
	}
	for k, v := range want.Outcomes {
		if got.Outcomes[k] != v {
			t.Fatalf("%s outcome histogram %v, want %v", label, got.Outcomes, want.Outcomes)
		}
	}
	if (len(got.Violations) == 0) != (len(want.Violations) == 0) {
		t.Fatalf("%s recorded %d violation reps, want %d", label, len(got.Violations), len(want.Violations))
	}
}

// TestStealCensusMatchesSequentialPruned: the work-stealing shared-table
// census must be bit-identical (counts, histogram, violation count,
// exhaustiveness) to the sequential pruned walk, across worker counts
// and with donation forced at every backtrack.
func TestStealCensusMatchesSequentialPruned(t *testing.T) {
	forceDonation(t)
	cases := []struct {
		name string
		b    Builder
		opts Options
	}{
		{name: "rw-crash1", b: rwAttempt, opts: Options{MaxCrashes: 1}},
		{name: "wide", b: wideTree, opts: Options{}},
		{name: "wide-crash1", b: wideTree, opts: Options{MaxCrashes: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts.withDefaults()
			want := Run(tc.b, opts.With(WithPrune()), disagreeCheck)
			var donations uint64
			for _, workers := range []int{2, 4, 8} {
				got := Run(tc.b, opts.With(WithPrune(), WithWorkers(workers)), disagreeCheck)
				sameCensus(t, tc.name, got, want)
				if got.Prune == nil {
					t.Fatal("parallel pruned census reported no Prune stats")
				}
				donations += got.Prune.Donations
			}
			// The forced-hungry hook guarantees donation attempts; on any
			// tree deep enough to split, some must land.
			if tc.name != "rw-crash1" && donations == 0 {
				t.Fatal("forced hunger produced no donations")
			}
		})
	}
}

// TestStealCensusChaosBitIdentical: forced donation composed with
// injected worker kills and the stall watchdog — retried donor items
// must honor their donation logs (no run double-counted, none lost).
func TestStealCensusChaosBitIdentical(t *testing.T) {
	forceDonation(t)
	want := Run(wideTree, Options{MaxCrashes: 1}.withDefaults().With(WithPrune()), disagreeCheck)
	if !want.Exhaustive || want.ViolationRuns == 0 {
		t.Fatalf("sequential pruned baseline broken: %+v", want)
	}
	var stats SuperviseStats
	opts := Options{MaxCrashes: 1, Workers: 4}.withDefaults().With(WithPrune(), WithSupervision(Supervise{
		MaxAttempts:  10,
		BackoffBase:  time.Microsecond,
		BackoffMax:   time.Millisecond,
		Seed:         1,
		StallTimeout: 25 * time.Millisecond,
		Chaos: &ChaosPlan{
			Seed:      7,
			KillRate:  1,
			MaxKills:  6,
			StallRate: 1,
			MaxStalls: 2,
			StallFor:  80 * time.Millisecond,
		},
		Stats: &stats,
	}))
	got := Run(wideTree, opts, disagreeCheck)
	if len(got.Errors) != 0 {
		t.Fatalf("chaos not healed within the attempt budget: %v", got.Errors)
	}
	sameCensus(t, "chaos", got, want)
	if stats.Kills.Load() == 0 {
		t.Fatal("chaos injected no kills; test exercised nothing")
	}
	if stats.Retries.Load() == 0 && stats.Requeues.Load() == 0 {
		t.Fatal("supervisor recorded neither retries nor requeues under chaos")
	}
}

// TestRetriedDonorTableSoundness pins the transposition-table rules of
// a retried donor attempt — an attempt re-claimed after an earlier
// attempt of the same item donated a child away. Both hazards are
// exercised deterministically by running the donor walk (skip log
// pre-seeded) and the donated item's walk directly:
//
//  1. Publication: the donor's frames at ancestors of the donated
//     prefix lose the donated subtree to skip excision, so nothing the
//     donor publishes may under-count — every table entry it produces
//     must match the entry a full sequential walk produces for the
//     same key.
//  2. Hits: against a table pre-seeded by a full walk, the donor must
//     not take hits at those ancestors — a hit would credit the
//     donated subtree a second time on top of the donated item's walk.
func TestRetriedDonorTableSoundness(t *testing.T) {
	b := wideTree
	opts := censusOptions(b, Options{MaxCrashes: 1}.withDefaults().With(WithPrune()))

	// Reference: a full sequential pruned walk, keeping its table.
	refTable := newPruneTable(0)
	full := &engine{b: b, opts: opts, acc: newSummary(), check: disagreeCheck, table: refTable}
	full.run()
	if full.capped || full.cancelled {
		t.Fatal("reference walk did not complete")
	}
	want := censusFrom(full.acc, opts.ids, true)
	if want.ViolationRuns == 0 {
		t.Fatal("reference census found no violations; test tree too tame")
	}

	// Pick a donated child: a depth-2 prefix that is NOT the first
	// child of its decision node (auto-descent takes child 0, which is
	// never donated), i.e. the first terminal schedule's length-2
	// prefix with the second choice swapped for a sibling's.
	var first, donated []Choice
	Visit(b, Options{MaxCrashes: 1}, func(o Outcome) bool {
		if len(o.Schedule) < 2 {
			return true
		}
		if first == nil {
			first = append([]Choice(nil), o.Schedule[:2]...)
			return true
		}
		if o.Schedule[0] == first[0] && o.Schedule[1] != first[1] {
			donated = append([]Choice(nil), o.Schedule[:2]...)
			return false
		}
		return true
	})
	if donated == nil {
		t.Fatal("found no sibling child to donate")
	}

	// runSplit replays the retried-donor scenario against the given
	// table: the donor item's walk with the donation pre-logged, plus
	// the donated item's walk, merged. The pair partitions the tree, so
	// the merged census must equal the reference census exactly.
	runSplit := func(table *pruneTable) *Census {
		t.Helper()
		p := &stealPool{
			ctx: context.Background(), cfg: opts.supervise(), opts: opts,
			check: disagreeCheck, table: table,
			claims: make(map[*stealClaim]struct{}), finished: make(chan struct{}),
		}
		p.cond = sync.NewCond(&p.mu)
		it := &stealItem{
			pool: p, attempts: 2, current: 2,
			skip:     map[string]bool{FormatSchedule(donated): true},
			skipSeqs: [][]Choice{donated},
		}
		donor := &engine{
			b: b, opts: opts, acc: newSummary(), check: disagreeCheck,
			table: table, pool: p, item: it, attempt: 2, skipcheck: true,
		}
		donor.run()
		den := &engine{b: b, opts: opts, acc: newSummary(), check: disagreeCheck, table: table, root: donated}
		den.run()
		if donor.capped || donor.cancelled || den.capped || den.cancelled {
			t.Fatal("split walks did not complete")
		}
		total := newSummary()
		total.merge(donor.acc, nil)
		total.merge(den.acc, nil)
		return censusFrom(total, opts.ids, true)
	}

	// Hazard 1: fresh table. The donor's ancestor frames of the donated
	// prefix must not publish their under-counted accumulators.
	fresh := newPruneTable(0)
	sameCensus(t, "fresh-table split", runSplit(fresh), want)
	for si := range fresh.shards {
		sh := &fresh.shards[si]
		for k, s := range sh.m {
			ref, ok := refTable.get(k)
			if !ok {
				t.Errorf("split walk published key %+v never published by the full walk", k)
				continue
			}
			if s.complete != ref.complete || s.incomplete != ref.incomplete || s.violations != ref.violations {
				t.Errorf("split walk published %d/%d viol=%d under key %+v, full walk published %d/%d viol=%d",
					s.complete, s.incomplete, s.violations, k, ref.complete, ref.incomplete, ref.violations)
				continue
			}
			split, full := opts.ids.outcomeMap(s.outcomes), opts.ids.outcomeMap(ref.outcomes)
			for o, n := range full {
				if split[o] != n {
					t.Errorf("split walk outcome histogram %v under key %+v, want %v", split, k, full)
					break
				}
			}
		}
	}

	// Hazard 2: pre-seeded table. The donor must not take a hit at the
	// root or the depth-1 ancestor of the donated prefix, both of which
	// the reference walk published with the donated subtree included.
	sameCensus(t, "seeded-table split", runSplit(refTable), want)
}

// TestStealRetryStaleGeneration: a superseded attempt's panic must not
// requeue or fail an item out from under the live attempt. Pre-fix, a
// stale straggler reaching retryOrFail at the attempt budget marked
// the item as a RootFailure, so the live attempt's imminent successful
// result was discarded in resolve and the subtree silently dropped.
func TestStealRetryStaleGeneration(t *testing.T) {
	opts := Options{}.withDefaults().With(WithSupervision(Supervise{
		MaxAttempts: 1, BackoffBase: time.Microsecond, BackoffMax: time.Microsecond,
	}))
	p := &stealPool{
		ctx: context.Background(), cfg: opts.supervise(), opts: opts,
		roots:  []rootState{{acc: newSummary(), open: 1}},
		claims: make(map[*stealClaim]struct{}), finished: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	it := &stealItem{pool: p, prefix: []Choice{{Pick: 0}}, donor: -1, queued: true}
	p.queue = append(p.queue, it)
	p.outstanding = 1
	if got := p.next(0); got != it {
		t.Fatal("claim of the seeded item failed")
	}
	// A watchdog requeue hands the item to a second, live claim.
	p.mu.Lock()
	it.attempts++
	it.current++
	p.mu.Unlock()
	// The stale first attempt (generation 1) panics with the budget
	// spent: it must be a no-op, not a requeue or a RootFailure.
	p.retryOrFail(it, 1, 1, "panic: stale straggler")
	p.mu.Lock()
	if it.done || len(p.roots[0].failed) != 0 || len(p.queue) != 0 {
		p.mu.Unlock()
		t.Fatalf("stale attempt settled the item: done=%v failed=%v queue=%d", it.done, p.roots[0].failed, len(p.queue))
	}
	p.mu.Unlock()
	// The live attempt's completion still resolves the item.
	p.resolve(it, 2, &engine{acc: newSummary()})
	p.mu.Lock()
	defer p.mu.Unlock()
	if !it.done || p.outstanding != 0 || len(p.roots[0].failed) != 0 {
		t.Fatalf("live attempt did not resolve cleanly: done=%v outstanding=%d failed=%v", it.done, p.outstanding, p.roots[0].failed)
	}
}

// TestPruneTableHitAllocFree: a transposition-table hit — the inner
// loop of every pruned walk — must not allocate: lookup, stat counting
// and shard selection all run on preallocated state, and crediting the
// hit's summary into a warm accumulator is vector addition, renamed or
// not.
func TestPruneTableHitAllocFree(t *testing.T) {
	table := newPruneTable(0)
	key := tableKey{fp: 0x9e3779b97f4a7c15, depthRem: 40, crashRem: 1}
	if !table.put(key, newSummary()) {
		t.Fatal("put rejected first write")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := table.get(key); !ok {
			t.Fatal("seeded key missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("prune-table hit allocates %.1f objects, want 0", allocs)
	}

	// A census over three symmetric processes deciding their own ids.
	spec := &sim.Symmetry{
		Perms: sim.FullPerms(3),
		RenameOutcome: func(key string, perm []sim.ProcID) string {
			return sim.RenameIntKey(key, func(v int) int { return int(perm[v]) })
		},
	}
	canon, err := sim.NewCanonicalizer(wideTree(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ids := newOutcomeIDs(canon)
	stored := newSummary()
	for _, k := range []string{"[0]", "[0 1]", "[2 2 2]"} {
		id := int(ids.id(k))
		stored.grow(id + 1)
		stored.outcomes[id] = id + 1
		stored.complete += id + 1
	}
	hitKey := tableKey{fp: 0x51ed27, depthRem: 12}
	table.put(hitKey, stored.frozen(nil))
	acc := newSummary()
	acc.merge(stored, nil) // warm: the accumulator spans the alphabet
	allocs = testing.AllocsPerRun(200, func() {
		s, ok := table.get(hitKey)
		if !ok {
			t.Fatal("seeded key missed")
		}
		acc.merge(s, nil)
	})
	if allocs != 0 {
		t.Fatalf("hit credit allocates %.1f objects, want 0", allocs)
	}

	k := canon.NumPerms() - 1
	ren := ids.renamerInv(k)
	if ren == nil {
		t.Fatal("no ID table for a non-identity permutation")
	}
	moved := false
	for id, to := range ren {
		moved = moved || int(to) != id
	}
	if !moved {
		t.Fatalf("permutation %d fixes every outcome ID; the renamed merge would test nothing", k)
	}
	allocs = testing.AllocsPerRun(200, func() {
		acc.merge(stored, ids.renamerInv(k))
	})
	if allocs != 0 {
		t.Fatalf("renamed merge allocates %.1f objects, want 0", allocs)
	}
}
