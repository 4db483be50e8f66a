package explore

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Distributed census support: the exported view of the machinery
// RunCheckpointed builds on, so a coordinator process can shard an
// exploration's frontier roots over remote workers and merge the
// returned partial censuses under the exact discipline the local
// engines use. The unit of distribution is the same unit the
// work-stealing pool and the checkpoint file use — a subtree root's
// schedule prefix — and the merge is the pool's own DFS-root-order
// fold (foldCensus), so a distributed census is bit-identical in every
// count to a single-process run. Only engine telemetry (prune
// table hit/miss counters) is process-local and not aggregated.

// RootSummary is the census of one fully explored subtree root, in the
// form that crosses process boundaries: plain counts plus violation
// representatives flattened to schedules. It is the checkpoint file's
// per-root record (ckRoot embeds it), so a coordinator checkpoint
// written from remote results resumes into a local run and vice versa.
type RootSummary struct {
	Complete   int            `json:"complete"`
	Incomplete int            `json:"incomplete"`
	Outcomes   map[string]int `json:"outcomes,omitempty"`
	Violations int            `json:"violations"`
	Reps       [][]Choice     `json:"reps,omitempty"`
	Capped     bool           `json:"capped,omitempty"`
}

// DistPlan is one exploration split into its distributable work items.
// It is built coordinator-side from the same builder and options a
// local run would use; Prefix(i) hands out the per-root work items,
// Merge folds the returned summaries back together, and the checkpoint
// methods persist progress in the exact file format RunCheckpointed
// writes — so a job started locally can finish distributed and the
// other way round.
type DistPlan struct {
	b     Builder
	opts  Options
	check func(*sim.Result) error
	items []frontierItem

	// orbit, when non-nil (symmetry resolved), partitions the roots
	// into symmetry-orbit representatives and twins: Roots() hands out
	// only representatives, and Merge credits each twin its rep's
	// summary renamed into the twin's orientation (orbit.go). The
	// checkpoint key and item indexing are unchanged — a checkpoint
	// written by a non-orbit run resumes exactly, recorded twins
	// included.
	orbit *orbitInfo

	hdr ckHeader

	// Local-fallback execution shares one transposition table across
	// roots, like RunCheckpointed.
	tableOnce sync.Once
	table     *pruneTable
}

// NewDistPlan resolves the options (defaults, symmetry audit) and
// splits the exploration at the standard frontier. ok is false when
// the tree cannot be frontier-split under MaxRuns — the caller should
// fall back to a plain local Run, which owns the cap semantics.
func NewDistPlan(b Builder, opts Options, check func(*sim.Result) error) (*DistPlan, bool) {
	opts = censusOptions(b, opts.withDefaults())
	items, ok := frontier(b, opts, opts.workerCount())
	if !ok {
		return nil, false
	}
	p := &DistPlan{b: b, opts: opts, check: check, items: items, hdr: censusHeader(opts, items)}
	if opts.canon != nil {
		p.orbit = orbitPartition(b, opts, items)
	}
	return p, true
}

// Len is the number of frontier items (roots and above-split leaves).
func (p *DistPlan) Len() int { return len(p.items) }

// Roots lists the indices of the distributable items — frontier
// entries that are subtree roots, not leaves. Under an orbit partition
// (symmetry on) only orbit REPRESENTATIVES are listed: their twins
// need no exploration anywhere, Merge credits them from the rep's
// returned summary.
func (p *DistPlan) Roots() []int {
	var out []int
	for i, it := range p.items {
		if it.prefix == nil {
			continue
		}
		if p.orbit != nil && p.orbit.rep[i] != i {
			continue
		}
		out = append(out, i)
	}
	return out
}

// Prefix is item i's schedule prefix (nil for a leaf).
func (p *DistPlan) Prefix(i int) []Choice { return p.items[i].prefix }

// OptionsFingerprint renders the census-shaping option fields; a
// worker recomputes it from its own resolved options and refuses a
// work item whose fingerprint disagrees — the cross-process version of
// the checkpoint file's wrong-options refusal.
func (p *DistPlan) OptionsFingerprint() string { return p.hdr.opts }

// Key is the exploration's checkpoint key (options + frontier).
func (p *DistPlan) Key() uint64 { return p.hdr.key }

// LoadCheckpoint loads the plan's checkpoint file, crediting recorded
// roots through RunCheckpointed's own resume: a missing file is a
// silent fresh start, a corrupt or foreign file is ignored with a
// warning, and a file recording the same exploration under different
// engine options is a hard error.
func (p *DistPlan) LoadCheckpoint(path string) (map[int]RootSummary, string, error) {
	return p.hdr.resume(path, p.items)
}

// SaveCheckpoint persists the completed roots atomically and durably,
// in the standard checkpoint file format.
func (p *DistPlan) SaveCheckpoint(path string, done map[int]RootSummary) error {
	return p.hdr.save(path, done)
}

// ExploreRootLocal fully explores root i in this process — the
// coordinator's degraded mode when no remote workers are available.
// Roots explored locally share one transposition table, like
// RunCheckpointed. cancelled is true when ctx ended the attempt; the
// partial summary must be discarded.
func (p *DistPlan) ExploreRootLocal(ctx context.Context, i int) (RootSummary, bool) {
	if p.opts.Prune {
		p.tableOnce.Do(func() { p.table = newPruneTable(p.opts.PruneTableEntries) })
	}
	en := &engine{b: p.b, opts: p.opts, acc: newSummary(), check: p.check, table: p.table, root: p.items[i].prefix, ctx: ctx}
	en.run()
	if en.cancelled {
		return RootSummary{}, true
	}
	return rootSummaryOf(en.acc, p.opts.ids, en.capped), false
}

// Merge folds per-root summaries back into a census through the
// steal pool's fold (foldCensus), in DFS root order, so counts, outcome
// histograms, violation counts and recorded representatives all match
// a single-process run. Roots present in neither done nor failed mark
// the census cancelled-and-partial. Under an orbit partition a twin
// with no recorded summary of its own (the normal case — Roots never
// hands twins out) is credited its representative's summary renamed
// through the composed orientation, and the skips are reported in
// Census.Prune.OrbitSkips. Otherwise Census.Prune is nil: prune
// counters are per-process telemetry and do not aggregate across
// workers.
func (p *DistPlan) Merge(done map[int]RootSummary, failed map[int]RootFailure) *Census {
	roots := make([]rootState, len(p.items))
	for i, r := range done {
		if i >= 0 && i < len(roots) {
			roots[i] = r.settled(p.b, p.opts)
		}
	}
	for i, f := range failed {
		if i >= 0 && i < len(roots) {
			roots[i] = rootState{failed: []RootFailure{f}, settled: true}
		}
	}
	c, orbitSkips := foldCensus(p.items, roots, p.check, p.orbit, p.opts.ids)
	if p.orbit != nil {
		st := &PruneStats{OrbitSkips: orbitSkips}
		p.opts.markReducers(st)
		c.Prune = st
	}
	return c
}

// FingerprintOptions resolves opts against b (defaults plus the
// symmetry audit, which can flip Symmetry off) and returns the
// census-shaping fingerprint. Workers call this to verify a leased
// work item's options agree with their own resolution before
// exploring under them.
func FingerprintOptions(b Builder, opts Options) string {
	opts = opts.withDefaults()
	if opts.Prune {
		opts = resolveSymmetry(b, opts)
	}
	return optionsFingerprint(opts)
}

// ExploreSubtree fully explores the subtree rooted at prefix — one
// distributed work item — and returns its summary, bit-identical in
// every count to the same subtree explored inside a local census. The
// item is split again at a shallow sub-frontier (or, when it does not
// split, run as its single root) and explored on Options.Workers
// workers of the steal pool, with the pool's retry budget, donation
// and orbit folding; settled sub-roots are recorded in ck.Path, so a
// worker killed mid-item resumes from its last save instead of
// restarting the whole item. beat, when non-nil, is bumped on every
// engine step (the caller's cue to renew its lease: a wedged
// exploration stops beating and the coordinator's lease expiry takes
// over). A context cancellation (lease revoked, shutdown) returns
// ctx's error after flushing the checkpoint; a sub-root lost after the
// attempt budget returns an error naming it. In both cases the partial
// summary is discarded.
func ExploreSubtree(ctx context.Context, b Builder, opts Options, check func(*sim.Result) error, prefix []Choice, ck Checkpoint, beat func()) (RootSummary, CheckpointStats, error) {
	opts = censusOptions(b, opts.withDefaults())
	opts.Context = ctx
	items, ok := splitFrontier(b, opts, prefix, 8, 12)
	if !ok {
		items = []frontierItem{{prefix: prefix}}
	}
	// The sub-checkpoint key extends the standard options fold with the
	// work item's own prefix, so files from different roots (or jobs)
	// never cross-resume. The header carries no frontier/options split:
	// the worker has already refused a lease whose options disagree, so
	// any mismatch here is a foreign file, ignored with a warning.
	hdr := ckHeader{key: foldItems(foldString(foldString(fnvOffset, optionsFingerprint(opts)), "|item:"+FormatSchedule(prefix)), items)}
	c, stats, err := checkpointedCensus(b, opts, check, items, hdr, ck, beat)
	switch {
	case err != nil:
		return RootSummary{}, stats, err
	case len(c.FailedRoots) > 0:
		return RootSummary{}, stats, fmt.Errorf("explore: work item %q incomplete: %s", FormatSchedule(prefix), c.FailedRoots[0])
	case c.Cancelled:
		return RootSummary{}, stats, ctx.Err()
	}
	// The pool folds the sub-roots in DFS order, so the summary matches
	// the monolithic walk of the same subtree in every count (like any
	// pooled census, only the recorded representatives may differ);
	// every sub-root settled without loss, so only a cap leaves the fold
	// non-exhaustive.
	out := RootSummary{
		Complete:   c.Complete,
		Incomplete: c.Incomplete,
		Outcomes:   c.Outcomes,
		Violations: c.ViolationRuns,
		Capped:     !c.Exhaustive,
	}
	for _, v := range c.Violations {
		out.Reps = append(out.Reps, v.Schedule)
	}
	return out, stats, nil
}
