package explore_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/registers"
	"repro/internal/sim"
)

// rwAttempt3 is a doomed 3-process read/write "consensus" — announce,
// then adopt the first other announcement seen. Big enough to
// frontier-split and rich in violations under crash branching.
func rwAttempt3() explore.Builder {
	return func() *sim.System {
		sys := sim.NewSystem()
		ann := registers.NewArray(sys, "ann", 3, nil)
		sys.SpawnN(3, func(id sim.ProcID) sim.Program {
			return func(e *sim.Env) (sim.Value, error) {
				ann.Write(e, int(id))
				for j := 0; j < 3; j++ {
					if j != int(id) {
						if other := ann.Read(e, j); other != nil {
							return other, nil
						}
					}
				}
				return int(id), nil
			}
		})
		return sys
	}
}

// exploreAllItems plays a full worker fleet over a plan: every root is
// explored through ExploreSubtree (a fresh process-like environment
// per item, its own prune table), and the summaries are merged.
func exploreAllItems(t *testing.T, plan *explore.DistPlan, b explore.Builder, opts explore.Options, check func(*sim.Result) error, ckDir string) *explore.Census {
	t.Helper()
	done := make(map[int]explore.RootSummary)
	for _, root := range plan.Roots() {
		ck := explore.Checkpoint{}
		if ckDir != "" {
			ck = explore.Checkpoint{Path: filepath.Join(ckDir, fmt.Sprintf("item-%d.json", root)), Every: 1, Resume: true}
		}
		sum, _, err := explore.ExploreSubtree(context.Background(), b, opts, check, plan.Prefix(root), ck, nil)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		done[root] = sum
	}
	return plan.Merge(done, nil)
}

func assertCensusCountsEqual(t *testing.T, label string, got, want *explore.Census) {
	t.Helper()
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
		got.ViolationRuns != want.ViolationRuns || got.Exhaustive != want.Exhaustive ||
		got.Cancelled != want.Cancelled {
		t.Fatalf("%s: census %d/%d viol=%d ex=%v can=%v, want %d/%d viol=%d ex=%v can=%v",
			label, got.Complete, got.Incomplete, got.ViolationRuns, got.Exhaustive, got.Cancelled,
			want.Complete, want.Incomplete, want.ViolationRuns, want.Exhaustive, want.Cancelled)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s: outcomes %v, want %v", label, got.Outcomes, want.Outcomes)
	}
	for k, v := range want.Outcomes {
		if got.Outcomes[k] != v {
			t.Fatalf("%s: outcomes %v, want %v", label, got.Outcomes, want.Outcomes)
		}
	}
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("%s: %d recorded violation reps, want %d", label, len(got.Violations), len(want.Violations))
	}
}

// TestDistPlanMergeBitIdentical: distributing every root through
// ExploreSubtree (fresh tables, per-item checkpoints) and merging must
// reproduce the single-process census in every count — crash
// branching, violations, reduction and the pool's forced donation all
// included.
func TestDistPlanMergeBitIdentical(t *testing.T) {
	agree := func(res *sim.Result) error {
		if d := res.DistinctDecisions(); len(d) > 1 {
			return fmt.Errorf("disagreement: %v", d)
		}
		return nil
	}
	cases := []struct {
		name   string
		b      explore.Builder
		opts   explore.Options
		check  func(*sim.Result) error
		donate bool
	}{
		{"oneShot-3x2", oneShot(3, 2), explore.Options{Workers: 2}, nil, false},
		{"oneShot-crash", oneShot(3, 2), explore.Options{MaxCrashes: 1, Workers: 2}, nil, false},
		{"rw3-violations", rwAttempt3(), explore.Options{MaxCrashes: 1, Workers: 2}, agree, false},
		{"rw3-pruned-sleep", rwAttempt3(), explore.Options{SleepSets: true, Workers: 2}, agree, false},
		{"rw3-forced-donation", rwAttempt3(), explore.Options{MaxCrashes: 1, Prune: true, Workers: 4}, agree, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := explore.Run(tc.b, tc.opts, tc.check)
			// Without retries, a claim beyond one per settled sub-root is
			// a donated item.
			var claims, resolved atomic.Int64
			if tc.donate {
				// After the reference census: every work item's pool then
				// donates at every backtrack.
				explore.ForceDonation(t)
				tc.opts.Supervision = &explore.Supervise{OnEvent: func(e explore.Event) {
					switch e.Kind {
					case explore.EventClaim:
						claims.Add(1)
					case explore.EventResolved:
						resolved.Add(1)
					}
				}}
			}
			plan, ok := explore.NewDistPlan(tc.b, tc.opts, tc.check)
			if !ok {
				t.Fatal("exploration did not split")
			}
			if len(plan.Roots()) == 0 {
				t.Fatal("plan has no distributable roots")
			}
			got := exploreAllItems(t, plan, tc.b, tc.opts, tc.check, "")
			assertCensusCountsEqual(t, tc.name, got, want)
			// And with per-item subtree checkpointing switched on.
			got2 := exploreAllItems(t, plan, tc.b, tc.opts, tc.check, t.TempDir())
			assertCensusCountsEqual(t, tc.name+"+ck", got2, want)
			if tc.donate && claims.Load() <= resolved.Load() {
				t.Fatalf("forced hunger donated nothing: %d claims for %d settled sub-roots", claims.Load(), resolved.Load())
			}
		})
	}
}

// TestExploreSubtreeCheckpointResume: re-running a work item over its
// finished checkpoint must resume (not re-explore) and return the
// identical summary — the path a killed-then-restarted worker takes.
func TestExploreSubtreeCheckpointResume(t *testing.T) {
	b := oneShot(3, 3)
	opts := explore.Options{Workers: 2}
	plan, ok := explore.NewDistPlan(b, opts, nil)
	if !ok {
		t.Fatal("no split")
	}
	root := plan.Roots()[0]
	path := filepath.Join(t.TempDir(), "item.json")
	ck := explore.Checkpoint{Path: path, Every: 1, Resume: true}

	first, stats1, err := explore.ExploreSubtree(context.Background(), b, opts, nil, plan.Prefix(root), ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Saves == 0 {
		t.Fatal("first pass saved no checkpoint")
	}
	second, stats2, err := explore.ExploreSubtree(context.Background(), b, opts, nil, plan.Prefix(root), ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ResumedRoots == 0 {
		t.Fatalf("second pass resumed nothing: %+v", stats2)
	}
	if first.Complete != second.Complete || first.Incomplete != second.Incomplete ||
		first.Violations != second.Violations {
		t.Fatalf("resume changed the summary: %+v vs %+v", first, second)
	}
}

// TestExploreSubtreeForeignCheckpointWarns: a work item too small to
// split, resumed over another item's checkpoint, must report that it
// ignored the file — as a split item does — and explore afresh.
func TestExploreSubtreeForeignCheckpointWarns(t *testing.T) {
	b := oneShot(2, 2)
	var scheds [][]explore.Choice
	explore.Visit(b, explore.Options{}, func(o explore.Outcome) bool {
		scheds = append(scheds, o.Schedule)
		return len(scheds) < 2
	})
	ck := explore.Checkpoint{Path: filepath.Join(t.TempDir(), "item.json"), Every: 1, Resume: true}
	// A complete schedule is a work item with nothing left to split.
	if _, _, err := explore.ExploreSubtree(context.Background(), b, explore.Options{}, nil, scheds[0], ck, nil); err != nil {
		t.Fatal(err)
	}
	sum, stats, err := explore.ExploreSubtree(context.Background(), b, explore.Options{}, nil, scheds[1], ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Warning == "" || stats.ResumedRoots != 0 {
		t.Fatalf("foreign checkpoint resumed silently: %+v", stats)
	}
	if sum.Complete != 1 || sum.Incomplete != 0 {
		t.Fatalf("item %s: summary %+v, want its one complete run", explore.FormatSchedule(scheds[1]), sum)
	}
}

// TestExploreSubtreeChaos: a work item rides the pool's retry budget.
// Injected kills below the budget leave the summary identical; a
// sub-root lost after the budget is an error naming the item, never a
// panic. The lease heartbeat beats without a stall watchdog armed.
func TestExploreSubtreeChaos(t *testing.T) {
	b := oneShot(3, 3)
	opts := explore.Options{Workers: 2}
	plan, ok := explore.NewDistPlan(b, opts, nil)
	if !ok {
		t.Fatal("no split")
	}
	prefix := plan.Prefix(plan.Roots()[0])
	var beats atomic.Int64
	want, _, err := explore.ExploreSubtree(context.Background(), b, opts, nil, prefix, explore.Checkpoint{}, func() { beats.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if beats.Load() == 0 {
		t.Fatal("work item never beat")
	}

	stats := &explore.SuperviseStats{}
	killed := opts
	killed.Supervision = &explore.Supervise{
		BackoffBase: time.Microsecond, BackoffMax: time.Microsecond, Stats: stats,
		Chaos: &explore.ChaosPlan{Seed: 3, KillRate: 0.5, MaxKills: explore.DefaultMaxAttempts - 1},
	}
	got, _, err := explore.ExploreSubtree(context.Background(), b, killed, nil, prefix, explore.Checkpoint{}, nil)
	if err != nil {
		t.Fatalf("kills below the attempt budget: %v", err)
	}
	if stats.Kills.Load() == 0 {
		t.Fatal("chaos injected no kills")
	}
	if got.Complete != want.Complete || got.Incomplete != want.Incomplete ||
		got.Violations != want.Violations || fmt.Sprint(got.Outcomes) != fmt.Sprint(want.Outcomes) {
		t.Fatalf("retried item summary %+v, want %+v", got, want)
	}

	lost := opts
	lost.Supervision = &explore.Supervise{
		BackoffBase: time.Microsecond, BackoffMax: time.Microsecond,
		Chaos: &explore.ChaosPlan{Seed: 3, KillRate: 1},
	}
	ck := explore.Checkpoint{Path: filepath.Join(t.TempDir(), "item.json"), Every: 1}
	_, _, err = explore.ExploreSubtree(context.Background(), b, lost, nil, prefix, ck, nil)
	if err == nil || !strings.Contains(err.Error(), explore.FormatSchedule(prefix)) {
		t.Fatalf("item lost to unlimited kills: err=%v, want an error naming %s", err, explore.FormatSchedule(prefix))
	}
}

// TestDistPlanMergeMissingRoot: an unexplored root must surface as a
// cancelled, non-exhaustive census — never as silently-short counts.
func TestDistPlanMergeMissingRoot(t *testing.T) {
	b := oneShot(3, 2)
	opts := explore.Options{Workers: 2}
	want := explore.Run(b, opts, nil)
	plan, _ := explore.NewDistPlan(b, opts, nil)
	roots := plan.Roots()

	done := make(map[int]explore.RootSummary)
	for _, root := range roots[1:] { // skip the first root
		sum, _, err := explore.ExploreSubtree(context.Background(), b, opts, nil, plan.Prefix(root), explore.Checkpoint{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		done[root] = sum
	}
	c := plan.Merge(done, nil)
	if !c.Cancelled || c.Exhaustive {
		t.Fatalf("partial merge: cancelled=%v exhaustive=%v, want true/false", c.Cancelled, c.Exhaustive)
	}
	if c.Complete >= want.Complete {
		t.Fatalf("partial merge counted %d complete, full census has %d", c.Complete, want.Complete)
	}

	// A failed root instead marks a coverage deficit, not cancellation.
	failed := map[int]explore.RootFailure{
		roots[0]: {Prefix: plan.Prefix(roots[0]), Attempts: 3, Err: "lost"},
	}
	c2 := plan.Merge(done, failed)
	if c2.Cancelled || c2.Exhaustive || len(c2.Errors) != 1 {
		t.Fatalf("failed-root merge: cancelled=%v exhaustive=%v errors=%v", c2.Cancelled, c2.Exhaustive, c2.Errors)
	}
}

// TestDistPlanCheckpointRoundTripAndWrongOptions: the plan's
// checkpoint is the standard file format — a round trip credits the
// recorded roots, and a file recording the same exploration under
// different engine options is refused outright.
func TestDistPlanCheckpointRoundTrip(t *testing.T) {
	b := oneShot(3, 2)
	opts := explore.Options{Workers: 2}
	plan, _ := explore.NewDistPlan(b, opts, nil)
	root := plan.Roots()[0]
	sum, _, err := explore.ExploreSubtree(context.Background(), b, opts, nil, plan.Prefix(root), explore.Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "job.json")
	if err := plan.SaveCheckpoint(path, map[int]explore.RootSummary{root: sum}); err != nil {
		t.Fatal(err)
	}
	back, warn, err := plan.LoadCheckpoint(path)
	if err != nil || warn != "" {
		t.Fatalf("load: err=%v warn=%q", err, warn)
	}
	if got, ok := back[root]; !ok || got.Complete != sum.Complete {
		t.Fatalf("round trip lost root %d: %+v", root, back)
	}

	// Same tree, different census-shaping options (MaxRuns changes the
	// cap semantics): resuming must be refused, not silently merged.
	otherOpts := opts
	otherOpts.MaxRuns = 777
	other, ok := explore.NewDistPlan(b, otherOpts, nil)
	if !ok {
		t.Fatal("no split under other options")
	}
	if _, _, err := other.LoadCheckpoint(path); err == nil {
		t.Fatal("wrong-options checkpoint was accepted")
	}
}

// TestFingerprintOptionsDetectsDivergence: the worker-side guard — the
// fingerprint must be stable across processes for equal options and
// differ when a census-shaping option differs.
func TestFingerprintOptionsDetectsDivergence(t *testing.T) {
	b := oneShot(2, 2)
	opts := explore.Options{MaxCrashes: 1}
	a := explore.FingerprintOptions(b, opts)
	if a != explore.FingerprintOptions(b, opts) {
		t.Fatal("fingerprint not deterministic")
	}
	opts2 := opts
	opts2.MaxCrashes = 0
	if a == explore.FingerprintOptions(b, opts2) {
		t.Fatal("fingerprint ignored MaxCrashes")
	}
	// Tuning (worker count) must NOT shape the fingerprint.
	opts3 := opts
	opts3.Workers = 7
	if a != explore.FingerprintOptions(b, opts3) {
		t.Fatal("fingerprint depends on worker count")
	}
}
