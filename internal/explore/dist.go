package explore

import (
	"context"
	"fmt"
	"strconv"
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

	key        uint64
	optsFP     string
	frontierFP uint64

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
	p := &DistPlan{
		b: b, opts: opts, check: check, items: items,
		key:        checkpointKey(opts, items),
		optsFP:     optionsFingerprint(opts),
		frontierFP: frontierFingerprint(items),
	}
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
func (p *DistPlan) OptionsFingerprint() string { return p.optsFP }

// Key is the exploration's checkpoint key (options + frontier).
func (p *DistPlan) Key() uint64 { return p.key }

// LoadCheckpoint loads the plan's checkpoint file, crediting recorded
// roots. Semantics match RunCheckpointed's resume exactly: a missing
// file is a silent fresh start, a corrupt or foreign file is ignored
// with a warning, and a file recording the same exploration under
// different engine options is a hard error.
func (p *DistPlan) LoadCheckpoint(path string) (map[int]RootSummary, string, error) {
	f, warn := loadCheckpointTolerant(path)
	switch {
	case f == nil:
		return nil, warn, nil
	case f.Key != p.key:
		if f.Frontier == p.frontierFP && f.Opts != "" && f.Opts != p.optsFP {
			return nil, "", fmt.Errorf(
				"explore: checkpoint %s records the same exploration under different engine options (checkpoint %q, this run %q); refusing to resume — rerun with the original options or delete the checkpoint",
				path, f.Opts, p.optsFP)
		}
		return nil, "checkpoint ignored: key mismatch (different builder or options); starting fresh", nil
	}
	done := make(map[int]RootSummary)
	for i, v := range f.rootsOf(p.items) {
		done[i] = v.RootSummary
	}
	return done, "", nil
}

// SaveCheckpoint persists the completed roots atomically and durably,
// in the standard checkpoint file format.
func (p *DistPlan) SaveCheckpoint(path string, done map[int]RootSummary) error {
	f := ckFile{Key: p.key, Frontier: p.frontierFP, Opts: p.optsFP, Done: make(map[string]ckRoot, len(done))}
	for i, r := range done {
		f.Done[strconv.Itoa(i)] = ckRoot{RootSummary: r}
	}
	return saveCheckpoint(path, &f)
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
	return exploreRoot(ctx, p.b, p.opts, p.check, p.table, p.items[i].prefix, nil)
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

// SubtreeCheckpoint configures ExploreSubtree's in-flight progress
// persistence: the leased subtree is split again at a shallow
// sub-frontier and completed sub-roots are recorded in Path, so a
// worker killed mid-subtree resumes from its last save instead of
// restarting the whole work item.
type SubtreeCheckpoint struct {
	// Path is the checkpoint file; empty disables checkpointing.
	Path string
	// Every saves after this many newly completed sub-roots (0 = 4).
	Every int
	// Resume credits Path's recorded sub-roots when it matches.
	Resume bool
}

// SubtreeStats reports what ExploreSubtree did.
type SubtreeStats struct {
	// SubRoots is the sub-frontier size (0: explored monolithically).
	SubRoots int
	// Resumed is how many sub-roots were credited from the checkpoint.
	Resumed int
	// Saves counts checkpoint writes.
	Saves int
	// Warning is set when Resume found an unusable file.
	Warning string
}

// ExploreSubtree fully explores the subtree rooted at prefix — one
// distributed work item — and returns its summary, bit-identical in
// every count to the same subtree explored inside a local census.
// beat, when non-nil, is bumped on engine progress (the caller's cue
// to renew its lease: a wedged exploration stops beating and the
// coordinator's lease expiry takes over). A context cancellation
// (lease revoked, shutdown) returns ctx's error after flushing the
// checkpoint; the partial summary is discarded.
func ExploreSubtree(ctx context.Context, b Builder, opts Options, check func(*sim.Result) error, prefix []Choice, ck SubtreeCheckpoint, beat func()) (RootSummary, SubtreeStats, error) {
	opts = censusOptions(b, opts.withDefaults())
	var stats SubtreeStats
	var table *pruneTable
	if opts.Prune {
		table = newPruneTable(opts.PruneTableEntries)
	}
	if ck.Path == "" {
		r, cancelled := exploreRoot(ctx, b, opts, check, table, prefix, beat)
		if cancelled {
			return RootSummary{}, stats, ctx.Err()
		}
		return r, stats, nil
	}

	opts.Context = ctx
	items, ok := splitFrontier(b, opts, prefix, 8, 12)
	if !ok {
		// Not splittable (tiny subtree, or enumeration hit the cap):
		// explore monolithically, with a single-record checkpoint so a
		// completed-but-undelivered item still resumes instantly.
		key := foldString(foldString(fnvOffset, optionsFingerprint(opts)), "|item:"+FormatSchedule(prefix)+"|mono")
		if ck.Resume {
			if f, warn := loadCheckpointTolerant(ck.Path); f != nil && f.Key == key {
				if v, ok := f.Done["0"]; ok && v.Err == "" {
					stats.Resumed = 1
					return v.RootSummary, stats, nil
				}
			} else {
				stats.Warning = warn
			}
		}
		r, cancelled := exploreRoot(ctx, b, opts, check, table, prefix, beat)
		if cancelled {
			return RootSummary{}, stats, ctx.Err()
		}
		if err := saveCheckpoint(ck.Path, &ckFile{Key: key, Done: map[string]ckRoot{"0": {RootSummary: r}}}); err != nil {
			return RootSummary{}, stats, err
		}
		stats.Saves++
		return r, stats, nil
	}
	stats.SubRoots = 0
	for _, it := range items {
		if it.prefix != nil {
			stats.SubRoots++
		}
	}

	// The sub-checkpoint key extends the standard options fold with the
	// work item's own prefix, so files from different roots (or jobs)
	// never cross-resume.
	key := foldItems(foldString(foldString(fnvOffset, optionsFingerprint(opts)), "|item:"+FormatSchedule(prefix)), items)

	done := make(map[int]ckRoot)
	if ck.Resume {
		f, warn := loadCheckpointTolerant(ck.Path)
		switch {
		case f == nil:
			stats.Warning = warn
		case f.Key != key:
			stats.Warning = "subtree checkpoint ignored: key mismatch; starting fresh"
		default:
			done = f.rootsOf(items)
			stats.Resumed = len(done)
		}
	}
	every := ck.Every
	if every <= 0 {
		every = 4
	}
	save := func() error {
		f := ckFile{Key: key, Done: make(map[string]ckRoot, len(done))}
		for i, r := range done {
			f.Done[strconv.Itoa(i)] = r
		}
		if err := saveCheckpoint(ck.Path, &f); err != nil {
			return err
		}
		stats.Saves++
		return nil
	}

	unsaved := 0
	for i, it := range items {
		if it.prefix == nil {
			continue
		}
		if _, ok := done[i]; ok {
			continue
		}
		r, cancelled := exploreRoot(ctx, b, opts, check, table, it.prefix, beat)
		if cancelled {
			_ = save() // flush progress; the error is the cancellation
			return RootSummary{}, stats, ctx.Err()
		}
		done[i] = ckRoot{RootSummary: r}
		if beat != nil {
			beat()
		}
		unsaved++
		if unsaved >= every {
			if err := save(); err != nil {
				return RootSummary{}, stats, err
			}
			unsaved = 0
		}
	}
	if err := save(); err != nil {
		return RootSummary{}, stats, err
	}

	// Deterministic merge in DFS sub-root order — identical to the
	// monolithic walk of the same subtree in every count and in the
	// first ≤MaxRecordedViolations representatives. Every sub-root
	// settled without loss, so only a cap leaves the fold non-exhaustive.
	roots := make([]rootState, len(items))
	for i, r := range done {
		roots[i] = r.settled(b, opts)
	}
	c, _ := foldCensus(items, roots, check, nil, opts.ids)
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
