package explore

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Transposition pruning for census exploration. Different schedule
// prefixes often reconverge to the same global state (commuting steps
// of different processes being the canonical case); once the subtree
// under a state has been fully censused, every later prefix reaching
// the same state can be credited the stored summary instead of being
// re-walked.
//
// Soundness (see DESIGN.md for the full argument): processes are
// deterministic and interact only through gated operations, so a
// process's local state is a function of its observation history, and
// the global state is (object states, per-process observation
// histories, per-process status). sim.StateHash fingerprints exactly
// that. Two nodes with equal fingerprints AND equal remaining depth AND
// equal remaining crash budget therefore root identical subtrees: the
// same choice sequences are legal below both, and each produces
// Results equal in every field a census or check can observe (decided
// values, errors, step counts, halt status). Run counts, outcome
// histograms and violation counts transfer exactly; only the recorded
// representative schedules may differ (they come from the first
// encounter). Equality is up to hash collision over a 64-bit FNV-1a —
// TestPrunedCensusMatchesUnpruned cross-checks pruned against unpruned
// censuses over the whole small-instance matrix.

// tableKey identifies a subtree: the state fingerprint plus the
// remaining exploration budgets, all of which shape the subtree. The
// object-fault budget is a key dimension exactly like the crash budget:
// two equal-fingerprint nodes with different remaining fault budgets
// root different subtrees (one can still branch faults, the other
// cannot). FaultModes is fixed per exploration, so it needs no key
// dimension.
type tableKey struct {
	fp       uint64
	depthRem int
	crashRem int
	faultRem int
}

// summary is the census of one fully explored subtree. Outcomes are a
// count vector indexed by the census's outcome IDs (outcomes.go), and
// every element at or past len(outcomes) — up to its capacity — is
// zero, so grow re-extends without clearing. Engines recycle frame
// accumulators through a freelist, whose vectors therefore stop
// growing once they span the alphabet; a published summary instead
// owns one exactly-sized vector (frozen).
type summary struct {
	complete   int
	incomplete int
	outcomes   []int     // complete runs by outcome ID
	violations int       // complete runs failing the check
	reps       []Outcome // ≤ MaxRecordedViolations representatives
}

func newSummary() *summary {
	return &summary{}
}

// reset clears the summary for reuse, retaining the outcome vector's
// capacity. Reps are zeroed before truncation so recycled summaries do
// not pin retired Results.
func (s *summary) reset() {
	s.complete, s.incomplete, s.violations = 0, 0, 0
	clear(s.outcomes)
	s.outcomes = s.outcomes[:0]
	for i := range s.reps {
		s.reps[i] = Outcome{}
	}
	s.reps = s.reps[:0]
}

// grow extends the outcome vector to at least n entries.
func (s *summary) grow(n int) {
	if n > len(s.outcomes) {
		s.outcomes = slices.Grow(s.outcomes, n-len(s.outcomes))[:n]
	}
}

// addTerminal classifies one terminal run into the summary, interning
// its decision fingerprint in ids. retained reports that the Outcome
// (and its Result) was stored as a violation representative and must
// stay valid — the caller's cue to stop recycling any scratch buffers
// the Result aliases.
func (s *summary) addTerminal(o Outcome, check func(*sim.Result) error, ids *outcomeIDs) (retained bool) {
	if o.Result.Halted {
		s.incomplete++
		return false
	}
	s.complete++
	id := int(ids.id(DecisionFingerprint(o.Result)))
	s.grow(id + 1)
	s.outcomes[id]++
	if check != nil {
		if err := check(o.Result); err != nil {
			s.violations++
			if len(s.reps) < MaxRecordedViolations {
				s.reps = append(s.reps, o)
				return true
			}
		}
	}
	return false
}

// merge folds t into s with every outcome ID mapped through the ID
// table ren; a nil ren is the identity, and the merge is then plain
// vector addition. Renaming is the translation step of symmetry-
// canonical table storage: a summary stored at canonical orientation π
// holds outcomes renamed under π, so publishing renames under π and
// consuming a hit renames under π⁻¹ (see engine.popFrame and
// engine.run). Violation representatives keep their first-encounter
// schedules unrenamed (the replayability contract is per-schedule, not
// per-hit-point). t is never mutated: published table entries are
// shared and must stay immutable.
func (s *summary) merge(t *summary, ren []int32) {
	s.complete += t.complete
	s.incomplete += t.incomplete
	if ren == nil {
		s.grow(len(t.outcomes))
		out := s.outcomes[:len(t.outcomes)]
		for i, n := range t.outcomes {
			out[i] += n
		}
	} else {
		for i, n := range t.outcomes {
			if n != 0 {
				j := int(ren[i])
				s.grow(j + 1)
				s.outcomes[j] += n
			}
		}
	}
	s.violations += t.violations
	for _, r := range t.reps {
		if len(s.reps) >= MaxRecordedViolations {
			break
		}
		// A shared subtree's entry is credited once per hit point, so
		// its stored representative would repeat; keep distinct ones.
		if !s.hasRep(r) {
			s.reps = append(s.reps, r)
		}
	}
}

// frozen is the immutable copy of s that the table publishes, its
// outcomes mapped through ren (nil = identity) into a vector sized to
// the last nonzero count and allocated once.
func (s *summary) frozen(ren []int32) *summary {
	pub := &summary{complete: s.complete, incomplete: s.incomplete, violations: s.violations}
	if len(s.reps) > 0 {
		pub.reps = slices.Clone(s.reps)
	}
	n := 0
	for i, c := range s.outcomes {
		if c != 0 {
			n = max(n, renameID(ren, i)+1)
		}
	}
	if n > 0 {
		pub.outcomes = make([]int, n)
		for i, c := range s.outcomes {
			if c != 0 {
				pub.outcomes[renameID(ren, i)] += c
			}
		}
	}
	return pub
}

// renameID maps outcome ID i through the ID table ren (nil = identity).
func renameID(ren []int32, i int) int {
	if ren == nil {
		return i
	}
	return int(ren[i])
}

func (s *summary) hasRep(o Outcome) bool {
	for _, r := range s.reps {
		if schedulesEqual(r.Schedule, o.Schedule) {
			return true
		}
	}
	return false
}

func schedulesEqual(a, b []Choice) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maxTableEntries caps the transposition table's memory when
// Options.PruneTableEntries is zero. Beyond the cap the OLDEST entries
// are evicted FIFO — an evicted subtree is simply re-walked on its next
// encounter, so pruning degrades under memory pressure but census
// counts never do. FIFO (rather than LRU) keeps get() contention-free
// under a read lock; in a DFS the oldest published subtrees are the
// deepest ones, which are also the cheapest to re-walk.
const maxTableEntries = 1 << 20

// pruneShardCount is the number of lock stripes of a full-size table.
// Keys are spread by a mixed fingerprint, so with 64 stripes the
// probability that two concurrent workers collide on a stripe lock is
// ~1/64 per access pair — the single global RWMutex this replaces was
// the measured bottleneck of the shared-table parallel census.
const pruneShardCount = 64

// PruneStats reports transposition-table and work-stealing activity of
// one pruned census, so speedups (or their absence) are attributable:
// a high hit rate with low steals means the table carried the run; a
// high donation count means the frontier partition was uneven and
// stealing did the balancing.
type PruneStats struct {
	// Hits and Misses count table lookups at decision points.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Stores counts published subtree summaries; Evictions counts
	// entries dropped by the FIFO budget.
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
	// Donations counts subtrees split off mid-walk by busy workers;
	// Steals counts donated subtrees claimed by a different worker than
	// their donor. Both are zero for sequential censuses.
	Donations uint64 `json:"donations"`
	Steals    uint64 `json:"steals"`
	// Probes counts system replays (one per terminal run or table hit) —
	// the "explored executions" a schedule-space reducer is trying to
	// cut. SymmetryHits counts table hits consumed at a non-identity
	// canonical orientation (states recognized only thanks to symmetry);
	// SleepSkips counts sibling subtrees credited at backtrack time via
	// an independence pair memo, each of which saved one whole probe.
	Probes       uint64 `json:"probes,omitempty"`
	SymmetryHits uint64 `json:"symmetry_hits,omitempty"`
	SleepSkips   uint64 `json:"sleep_skips,omitempty"`
	// OrbitSkips counts frontier roots skipped at GENERATION time
	// because their state lies in the symmetry orbit of an earlier
	// root (orbit.go): each was credited its representative's summary
	// — renamed into its own orientation — without ever being enqueued
	// or explored. Zero for sequential censuses and when symmetry is
	// off.
	OrbitSkips uint64 `json:"orbit_skips,omitempty"`
	// SymmetryOn/SleepSetsOn record which reducers were ACTIVE (symmetry
	// may be refused even when requested); SymmetryNote says why it was
	// refused, empty otherwise.
	SymmetryOn   bool   `json:"symmetry_on,omitempty"`
	SleepSetsOn  bool   `json:"sleep_sets_on,omitempty"`
	SymmetryNote string `json:"symmetry_note,omitempty"`
}

// pruneShard is one lock stripe of the table.
type pruneShard struct {
	mu sync.RWMutex
	m  map[tableKey]*summary
	// order is the FIFO insertion log; entries before head are already
	// evicted. Duplicate publishes are dropped at put, so every entry
	// from head on is live in m.
	order []tableKey
	head  int
}

// pruneTable is the transposition table shared by ALL workers of a
// parallel census. Entries are only ever inserted after their subtree
// is fully explored, so concurrent workers need no in-progress marker:
// whichever worker publishes first wins (put is first-writer-wins and
// reports whether it stored), later publishers' values are
// interchangeable by the soundness argument above, and published
// summaries are immutable from that point on. The table is striped
// into pruneShardCount lock shards; a table with a small entry budget
// collapses to one shard so the FIFO eviction bound stays exact.
type pruneTable struct {
	shards   []pruneShard
	shardCap int

	hits, misses, stores, evictions atomic.Uint64
	probes, symHits, sleepSkips     atomic.Uint64
}

func newPruneTable(capacity int) *pruneTable {
	if capacity <= 0 {
		capacity = maxTableEntries
	}
	n := pruneShardCount
	if capacity < 1024 {
		// A tiny budget split 64 ways would round each shard's cap up
		// and overshoot the requested total; one shard keeps the bound
		// exact where it matters (explicit small PruneTableEntries).
		n = 1
	}
	t := &pruneTable{shards: make([]pruneShard, n), shardCap: (capacity + n - 1) / n}
	for i := range t.shards {
		t.shards[i].m = make(map[tableKey]*summary)
	}
	return t
}

// shard maps a key to its stripe: the fingerprint is already a hash,
// so mix the budget dimensions in and take high bits.
func (t *pruneTable) shard(k tableKey) *pruneShard {
	if len(t.shards) == 1 {
		return &t.shards[0]
	}
	h := k.fp ^ uint64(k.depthRem)<<1 ^ uint64(k.crashRem)<<32 ^ uint64(k.faultRem)<<48
	h *= 0x9e3779b97f4a7c15 // Fibonacci mix: budgets perturb low bits, shard index needs high ones
	return &t.shards[(h>>58)&uint64(len(t.shards)-1)]
}

func (t *pruneTable) get(k tableKey) (*summary, bool) {
	sh := t.shard(k)
	sh.mu.RLock()
	s, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return s, ok
}

// put publishes a fully-explored subtree summary, first-writer-wins.
// It reports whether s was stored: a stored summary is owned by the
// table (shared, immutable — callers must not recycle or mutate it),
// a rejected one stays owned by the caller.
func (t *pruneTable) put(k tableKey, s *summary) bool {
	sh := t.shard(k)
	sh.mu.Lock()
	if _, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		return false // concurrent worker published first; values are interchangeable
	}
	sh.m[k] = s
	sh.order = append(sh.order, k)
	evicted := 0
	for len(sh.m) > t.shardCap {
		delete(sh.m, sh.order[sh.head])
		sh.head++
		evicted++
	}
	// Compact the evicted prefix once it dominates the log, so a
	// long-running census at the cap does not grow order unboundedly.
	if sh.head > 1024 && sh.head > len(sh.order)/2 {
		sh.order = append([]tableKey(nil), sh.order[sh.head:]...)
		sh.head = 0
	}
	sh.mu.Unlock()
	t.stores.Add(1)
	if evicted > 0 {
		t.evictions.Add(uint64(evicted))
	}
	return true
}

// size reports the live entry count (tests).
func (t *pruneTable) size() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// statsSnapshot captures the table-side counters (donation counters
// are merged in by the steal pool).
func (t *pruneTable) statsSnapshot() *PruneStats {
	return &PruneStats{
		Hits:         t.hits.Load(),
		Misses:       t.misses.Load(),
		Stores:       t.stores.Load(),
		Evictions:    t.evictions.Load(),
		Probes:       t.probes.Load(),
		SymmetryHits: t.symHits.Load(),
		SleepSkips:   t.sleepSkips.Load(),
	}
}

// markReducers stamps the active-reducer flags onto a stats snapshot.
func (o Options) markReducers(st *PruneStats) {
	st.SymmetryOn = o.canon != nil
	st.SleepSetsOn = o.SleepSets
	st.SymmetryNote = o.symNote
}

// censusFrom renders an accumulated summary as a Census, outcome IDs
// back to their decision fingerprints.
func censusFrom(acc *summary, ids *outcomeIDs, exhaustive bool) *Census {
	out := ids.outcomeMap(acc.outcomes)
	if out == nil {
		out = make(map[string]int)
	}
	return &Census{
		Complete:      acc.complete,
		Incomplete:    acc.incomplete,
		Outcomes:      out,
		Violations:    acc.reps,
		ViolationRuns: acc.violations,
		Exhaustive:    exhaustive,
	}
}

// symmetryAuditRounds/Steps size the empirical equivariance audit run
// once per census before symmetry reduction is allowed on (see
// sim.AuditSymmetry). A handful of rotated schedules times every group
// element catches every spec mistake the test suite has produced;
// structural validation (NewCanonicalizer) catches the rest.
const (
	symmetryAuditRounds = 3
	symmetryAuditSteps  = 64
)

// resolveSymmetry turns Options.Symmetry into a working Canonicalizer,
// or off. The builder's probe system (built, never run) supplies the
// declared spec and the object shape; structural validation and the
// equivariance audit must BOTH pass, otherwise the census proceeds
// unreduced with the refusal recorded — requested-but-unsound symmetry
// is a degraded run, never a wrong one.
func resolveSymmetry(b Builder, opts Options) Options {
	if !opts.Symmetry {
		return opts
	}
	opts.Symmetry = false
	probe := b()
	spec := probe.SymmetrySpec()
	if spec == nil {
		opts.symNote = "symmetry off: builder declares no sim.Symmetry spec"
		return opts
	}
	canon, err := sim.NewCanonicalizer(probe, spec)
	if err != nil {
		opts.symNote = "symmetry off: " + err.Error()
		return opts
	}
	if err := sim.AuditSymmetry(b, canon, symmetryAuditRounds, symmetryAuditSteps); err != nil {
		opts.symNote = "symmetry off: " + err.Error()
		return opts
	}
	opts.Symmetry = true
	opts.canon = canon
	return opts
}

// censusOptions resolves opts for a census that folds summaries: the
// symmetry reducer when pruning, and the census's outcome interner,
// which every engine, the steal pool and the fold share.
func censusOptions(b Builder, opts Options) Options {
	if opts.Prune {
		opts = resolveSymmetry(b, opts)
	}
	opts.ids = newOutcomeIDs(opts.canon)
	return opts
}

// pruneCensus is Run with transposition pruning, sequential or
// parallel. The parallel walk shares one striped table across all
// workers and balances load by work stealing (see steal.go): workers
// start on frontier roots and, when the queue runs dry, busy workers
// donate untried sibling subtrees mid-walk instead of letting the pool
// idle. Retry with backoff, the stall watchdog and chaos injection
// are the pool's, shared with RunCheckpointed.
func pruneCensus(b Builder, opts Options, check func(*sim.Result) error) *Census {
	opts = censusOptions(b, opts)
	table := newPruneTable(opts.PruneTableEntries)
	workers := opts.workerCount()
	sequential := func() *Census {
		en := &engine{b: b, opts: opts, acc: newSummary(), check: check, table: table, ctx: opts.Context}
		en.run()
		c := censusFrom(en.acc, opts.ids, !en.capped && !en.cancelled)
		c.Cancelled = en.cancelled
		c.Prune = table.statsSnapshot()
		opts.markReducers(c.Prune)
		return c
	}
	if workers <= 1 {
		return sequential()
	}
	items, ok := frontier(b, opts, workers)
	if !ok {
		return sequential()
	}
	return newStealPool(b, opts, check, table, items).census(workers)
}
