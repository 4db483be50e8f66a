package explore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/sim"
)

// The work-stealing pool: the one driver of every supervised census
// that splits the tree into frontier roots — the pruned parallel Run,
// RunCheckpointed and a distributed work item (ExploreSubtree) alike.
// The frontier split hands the pool a starting queue of subtree roots,
// but fixed roots load-balance badly: pruning makes subtree costs
// wildly uneven (a root whose state was already tabled is nearly
// free), so some workers drain their share early and idle. Here an
// idle pool instead makes busy workers DONATE: when the shared queue
// runs dry and a worker goes hungry, each busy engine, at its next
// backtrack, splits off every untried child of its shallowest open
// frame as new queue items and keeps walking its current branch.
//
// The pool keeps a per-root ledger: every item carries its frontier
// root's index (donated items inherit their donor's), and each root
// has one accumulator and one count of open items. A root settles when
// its last item resolves; its sink then fires exactly once — the
// supervisor event and, for a checkpointed census, the root's record.
// The census is folded from the ledger in DFS root order (foldCensus),
// the same fold DistPlan.Merge applies to remote summaries.
//
// Exactly-once accounting under donation, retry and stall-requeue:
//
//   - Every queue item is resolved exactly once (first completing
//     CURRENT-generation attempt wins; the generation counter bumps on
//     every claim, and a stale straggler's result is discarded even if
//     complete — a stale attempt is NOT interchangeable with the live
//     one, because the live one may have donated children the
//     straggler would count itself).
//   - A donation is logged in the item's skip set (keyed by the
//     donated child's schedule prefix) before the child is enqueued.
//     Later attempts of the donor item consult the log and excise
//     exactly those children, so a retried donor and the donated items
//     partition the donor's subtree — no overlap, no gap.
//   - Donated-from frames (and their ancestors) are poisoned against
//     transposition-table publication: their accumulators no longer
//     cover their keys. Deeper frames still publish normally. A
//     retried donor attempt re-establishes the same poison: every node
//     it visits that is a proper ancestor of a donated prefix (see
//     stealItem.shadows) neither takes table hits — a hit would credit
//     the donated children a second time, on top of the items that
//     walk them — nor publishes, and the skip branch of
//     engine.backtrack re-poisons the open frames when it excises a
//     child.
//
// Census counts are bit-identical to the sequential pruned walk
// because summaries are merged by integer addition (order-free) and
// the table only ever serves fully-explored, immutable summaries; see
// DESIGN.md "Concurrent table publication".
type stealItem struct {
	pool   *stealPool
	idx    int // creation sequence; only feeds backoff jitter
	root   int // frontier-root index; donated items inherit their donor's
	prefix []Choice
	donor  int // worker that donated it; -1 for frontier roots

	// Guarded by pool.mu.
	attempts int             // claims so far (budgeted by cfg.maxAttempts)
	current  int             // generation of the live attempt
	done     bool            // resolved (merged or failed)
	queued   bool            // currently sitting in pool.queue
	skip     map[string]bool // donation log: child prefixes excised from this item
	skipSeqs [][]Choice      // the same donated prefixes as schedules, for shadows
}

// rootState is one frontier root's ledger entry, and the per-root
// record foldCensus reads. The root's items merge into acc; open counts
// the items still unresolved, and the root settles when it reaches
// zero. failed lists the root's items lost after the attempt budget —
// acc then covers the rest of the subtree, and the census reports the
// deficit. A root credited from a checkpoint or a remote worker enters
// the ledger already settled.
type rootState struct {
	acc     *summary
	open    int
	capped  bool
	failed  []RootFailure
	settled bool
}

// settled is the ledger entry of a root whose summary is already known.
func (r RootSummary) settled(b Builder, opts Options) rootState {
	return rootState{acc: r.toSummary(b, opts), capped: r.Capped, settled: true}
}

// skips reports whether the child prefix key was donated away by an
// earlier attempt of this item. Called from engine.backtrack only when
// the item's skip set is known to be non-empty.
func (it *stealItem) skips(key string) bool {
	it.pool.mu.Lock()
	ok := it.skip[key]
	it.pool.mu.Unlock()
	return ok
}

// shadows reports whether the node at schedule prefix root+path is a
// proper ancestor of a donated child of this item: its subtree
// contains runs that separately-enqueued items count, so a retried
// donor attempt must neither credit a table hit for the node (the
// stored summary covers the donated children too) nor publish it (its
// own accumulator will lose them to skip excision). Only consulted on
// retried attempts with a non-empty donation log.
func (it *stealItem) shadows(root, path []Choice) bool {
	n := len(root) + len(path)
	it.pool.mu.Lock()
	defer it.pool.mu.Unlock()
seqs:
	for _, k := range it.skipSeqs {
		if len(k) <= n {
			continue
		}
		for i, c := range root {
			if k[i] != c {
				continue seqs
			}
		}
		for i, c := range path {
			if k[len(root)+i] != c {
				continue seqs
			}
		}
		return true
	}
	return false
}

// shadowsChild is shadows for the child node root+path+c without
// materializing the extended slice: consulted by the sleep-set credit
// path (engine.creditChild), where the child in question was never
// descended into, so no frame carries it. Exact equality with a donated
// prefix is impossible here — backtrack's skips() check excised that
// case before crediting was attempted — so only proper ancestry is
// tested, like shadows.
func (it *stealItem) shadowsChild(root, path []Choice, c Choice) bool {
	n := len(root) + len(path) + 1
	it.pool.mu.Lock()
	defer it.pool.mu.Unlock()
seqs:
	for _, k := range it.skipSeqs {
		if len(k) <= n {
			continue
		}
		for i, ch := range root {
			if k[i] != ch {
				continue seqs
			}
		}
		for i, ch := range path {
			if k[len(root)+i] != ch {
				continue seqs
			}
		}
		if k[n-1] != c {
			continue
		}
		return true
	}
	return false
}

// stealClaim is one in-flight attempt, tracked for the stall watchdog.
type stealClaim struct {
	it     *stealItem
	cancel context.CancelFunc
	hb     atomic.Int64
	last   int64
	lastAt time.Time
	gone   bool
}

type stealPool struct {
	ctx   context.Context
	cfg   *supCfg
	b     Builder // chaos-wrapped worker-side builder
	opts  Options
	check func(*sim.Result) error
	table *pruneTable
	items []frontierItem
	// orbit, when non-nil (symmetry resolved), partitions the roots into
	// orbit representatives, the only roots ever enqueued, and twins,
	// which the fold credits from their representative (orbit.go).
	orbit *orbitInfo
	// sink, when non-nil, receives every root that settles with no lost
	// item, exactly once, from a worker goroutine with no pool lock held.
	sink func(root int, r RootSummary)
	// beat, when non-nil, fires on every engine step of every attempt
	// (a distributed worker's lease heartbeat); the stall watchdog's
	// per-claim heartbeat chains it.
	beat func()

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*stealItem
	roots       []rootState // the ledger, indexed like items
	outstanding int         // unresolved items (queued, claimed or donated)
	waiting     int         // workers parked on an empty queue
	itemSeq     int
	shutdown    bool // ctx cancelled: workers drain out
	claims      map[*stealClaim]struct{}
	nextWorker  int

	// hungryFlag mirrors (waiting > 0 && queue empty) for lock-free
	// polling from engine backtracks.
	hungryFlag atomic.Bool

	donations atomic.Uint64
	steals    atomic.Uint64

	wg       sync.WaitGroup
	finished chan struct{}
	finOnce  sync.Once
}

// newStealPool prepares a census of the split frontier items on the
// pool: an empty ledger entry per item and, with symmetry resolved, the
// orbit partition. Callers may pre-settle ledger entries (roots
// credited from a checkpoint) and set a sink and a beat before calling
// census.
func newStealPool(b Builder, opts Options, check func(*sim.Result) error, table *pruneTable, items []frontierItem) *stealPool {
	cfg := opts.supervise()
	p := &stealPool{
		ctx: opts.ctx(), cfg: cfg, b: cfg.wrapChaos(b), opts: opts,
		check: check, table: table, items: items, roots: make([]rootState, len(items)),
		claims: make(map[*stealClaim]struct{}), finished: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	if opts.canon != nil {
		p.orbit = orbitPartition(b, opts, items)
	}
	return p
}

// census explores every unsettled orbit-representative root on the
// given number of workers, then folds the ledger into the census.
func (p *stealPool) census(workers int) *Census {
	for i, it := range p.items {
		if it.prefix == nil || p.roots[i].settled || (p.orbit != nil && p.orbit.rep[i] != i) {
			continue
		}
		p.roots[i] = rootState{acc: newSummary(), open: 1}
		p.queue = append(p.queue, &stealItem{pool: p, idx: p.itemSeq, root: i, prefix: it.prefix, donor: -1, queued: true})
		p.itemSeq++
	}
	p.outstanding = len(p.queue)
	if p.outstanding > 0 {
		p.nextWorker = workers
		for w := 0; w < workers; w++ {
			p.wg.Add(1)
			go p.worker(w)
		}
		if p.cfg.stall > 0 {
			p.wg.Add(1)
			go p.watchdog()
		}
		// Wake parked workers if the context dies while the queue is dry.
		go func() {
			select {
			case <-p.ctx.Done():
				p.mu.Lock()
				p.shutdown = true
				p.cond.Broadcast()
				p.mu.Unlock()
			case <-p.finished:
			}
		}()
		p.wg.Wait()
		p.finish()
	}

	c, orbitSkips := foldCensus(p.items, p.roots, p.check, p.orbit, p.opts.ids)
	if p.table != nil {
		st := p.table.statsSnapshot()
		st.Donations = p.donations.Load()
		st.Steals = p.steals.Load()
		st.OrbitSkips = orbitSkips
		p.opts.markReducers(st)
		c.Prune = st
	}
	return c
}

// foldCensus builds the census of a split frontier in DFS root order:
// leaves are classified directly, a settled root contributes its
// summary and its lost items, and an orbit twin with no record of its
// own is credited its representative's summary renamed into the twin's
// orientation (orbitRenamerRaw) — the translation a table hit at the
// twin's root would perform, so counts stay bit-identical. A twin
// whose representative lost items shares that disposition; the
// representative already reports the deficit. An unsettled root marks
// the census cancelled. It also returns the number of credited twins.
// The steal pool and DistPlan.Merge both fold through here.
func foldCensus(items []frontierItem, roots []rootState, check func(*sim.Result) error, orbit *orbitInfo, ids *outcomeIDs) (*Census, uint64) {
	total := newSummary()
	capped, cancelled := false, false
	var failures []RootFailure
	var twins uint64
	for i, it := range items {
		r := &roots[i]
		switch {
		case it.prefix == nil:
			total.addTerminal(*it.leaf, check, ids)
			continue
		case r.settled:
			if r.acc != nil {
				total.merge(r.acc, nil)
			}
			failures = append(failures, r.failed...)
		case orbit != nil && orbit.rep[i] != i:
			j := orbit.rep[i]
			r = &roots[j]
			if !r.settled {
				cancelled = true
				continue
			}
			if len(r.failed) > 0 {
				continue
			}
			total.merge(r.acc, orbitRenamerRaw(ids, orbit.perm[j], orbit.perm[i]))
			twins++
		default:
			cancelled = true
			continue
		}
		capped = capped || r.capped
	}
	c := censusFrom(total, ids, !capped && !cancelled && len(failures) == 0)
	c.FailedRoots = failures
	c.Errors = failureStrings(failures)
	c.Cancelled = cancelled
	return c, twins
}

func (p *stealPool) finish() { p.finOnce.Do(func() { close(p.finished) }) }

// stealForceHungry (tests only, set before the census starts) makes
// every pool report hungry, forcing a donation at every backtrack —
// maximal stealing churn for the bit-identity cross-checks.
var stealForceHungry bool

// hungry reports that some worker is parked on an empty queue — the
// cue for busy engines to donate at their next backtrack.
func (p *stealPool) hungry() bool { return stealForceHungry || p.hungryFlag.Load() }

// updateHungry recomputes the flag; callers hold p.mu.
func (p *stealPool) updateHungry() {
	p.hungryFlag.Store(p.waiting > 0 && len(p.queue) == 0 && p.outstanding > 0)
}

// next claims the next live item, blocking while the queue is empty
// but work is still outstanding (donations may refill it). nil means
// drained or cancelled.
func (p *stealPool) next(workerID int) *stealItem {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.shutdown || p.outstanding == 0 {
			return nil
		}
		// LIFO: donated items are deepest and hottest in the shared table.
		for n := len(p.queue); n > 0; n = len(p.queue) {
			it := p.queue[n-1]
			p.queue = p.queue[:n-1]
			it.queued = false
			p.updateHungry()
			if it.done {
				continue // stale requeue of a since-resolved item
			}
			it.attempts++
			it.current++
			if it.donor >= 0 && it.donor != workerID {
				p.steals.Add(1)
			}
			return it
		}
		p.waiting++
		p.updateHungry()
		p.cond.Wait()
		p.waiting--
		p.updateHungry()
	}
}

func (p *stealPool) worker(id int) {
	defer p.wg.Done()
	for {
		it := p.next(id)
		if it == nil {
			return
		}
		p.attempt(id, it)
	}
}

// attempt explores one item once. Panics become retries (with the
// supervisor's backoff) up to the attempt budget, then a RootFailure.
func (p *stealPool) attempt(workerID int, it *stealItem) {
	p.mu.Lock()
	gen := it.current
	att := it.attempts
	hasSkips := len(it.skip) > 0
	p.mu.Unlock()
	p.cfg.stats.Attempts.Add(1)
	p.cfg.emit(Event{Kind: EventClaim, Root: it.root, Attempt: att})

	cctx, cancel := context.WithCancel(p.ctx)
	defer cancel()
	cl := &stealClaim{it: it, cancel: cancel}
	beat := p.beat
	if p.cfg.stall > 0 {
		outer := beat
		beat = func() {
			cl.hb.Add(1)
			if outer != nil {
				outer()
			}
		}
		p.mu.Lock()
		p.claims[cl] = struct{}{}
		p.mu.Unlock()
	}

	en := &engine{
		b: p.b, opts: p.opts, acc: newSummary(), check: p.check,
		table: p.table, root: it.prefix, ctx: cctx,
		pool: p, item: it, attempt: gen, workerID: workerID,
		skipcheck: hasSkips, onStep: beat,
	}
	panicMsg := runRecovering(en)
	if p.cfg.stall > 0 {
		// Deregister the claim before the retry path can sleep in
		// backoff: the attempt is over, and a finished claim left
		// registered would stop heartbeating and trip the watchdog
		// into a spurious requeue.
		p.mu.Lock()
		delete(p.claims, cl)
		p.mu.Unlock()
	}
	switch {
	case panicMsg != "":
		p.retryOrFail(it, gen, att, panicMsg)
	case en.cancelled:
		// Outer cancellation (shutdown drains the pool) or a watchdog
		// abandonment (the item was already requeued); either way this
		// partial walk is discarded.
	default:
		p.resolve(it, gen, en)
	}
}

// runRecovering runs the engine, converting harness-side panics (chaos
// kills, builder bugs) into an error string for the retry policy.
func runRecovering(en *engine) (panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprintf("panic: %v", r)
		}
	}()
	en.run()
	return ""
}

// resolve merges a completed attempt into its root's accumulator,
// first CURRENT-generation completion wins: a straggler from a
// superseded generation is discarded because the live generation may
// have donated children the straggler walked itself.
func (p *stealPool) resolve(it *stealItem, gen int, en *engine) {
	p.mu.Lock()
	if it.done || it.current != gen {
		p.mu.Unlock()
		return
	}
	r := &p.roots[it.root]
	r.acc.merge(en.acc, nil)
	r.capped = r.capped || en.capped
	settled := p.settleLocked(it)
	p.mu.Unlock()
	if settled {
		p.fire(it.root)
	}
}

// failLocked settles it as permanently lost; callers hold p.mu and
// handle the result like settleLocked's.
func (p *stealPool) failLocked(it *stealItem, msg string) bool {
	p.cfg.stats.Failed.Add(1)
	r := &p.roots[it.root]
	r.failed = append(r.failed, RootFailure{Prefix: it.prefix, Attempts: it.attempts, Err: msg})
	return p.settleLocked(it)
}

// settleLocked finishes bookkeeping for a resolved (merged or failed)
// item and reports whether it was its root's last open item; callers
// hold p.mu and, on true, call settled once they have released it.
func (p *stealPool) settleLocked(it *stealItem) bool {
	it.done = true
	p.outstanding--
	for cl := range p.claims {
		if cl.it == it {
			cl.cancel()
		}
	}
	p.updateHungry()
	p.cond.Broadcast()
	if p.outstanding == 0 {
		p.finish()
	}
	r := &p.roots[it.root]
	r.open--
	r.settled = r.open == 0
	return r.settled
}

// fire runs root i's sink, exactly once, when its last item resolves:
// the supervisor event and, for a root with no lost item, the pool's
// sink. The entry is final by now, so it is read unlocked.
func (p *stealPool) fire(i int) {
	r := &p.roots[i]
	if len(r.failed) > 0 {
		f := r.failed[0]
		p.cfg.emit(Event{Kind: EventFailed, Root: i, Attempt: f.Attempts, Err: f.Err})
		return
	}
	p.cfg.emit(Event{Kind: EventResolved, Root: i})
	if p.sink != nil {
		p.sink(i, rootSummaryOf(r.acc, p.opts.ids, r.capped))
	}
}

// retryOrFail handles a panicked attempt of generation gen: requeue
// with backoff while the budget lasts, otherwise settle the item as
// failed. Like resolve, it is a no-op for a superseded generation:
// after a watchdog requeue has handed the item to a newer claim, the
// stale straggler's panic must neither requeue the item a second time
// nor burn it to a RootFailure out from under the live attempt (which
// would discard that attempt's imminent result and drop the subtree
// from the census).
func (p *stealPool) retryOrFail(it *stealItem, gen, att int, msg string) {
	p.mu.Lock()
	if it.done || it.current != gen {
		p.mu.Unlock()
		return
	}
	if it.attempts >= p.cfg.maxAttempts {
		settled := p.failLocked(it, msg)
		p.mu.Unlock()
		if settled {
			p.fire(it.root)
		}
		return
	}
	p.mu.Unlock()
	p.cfg.stats.Retries.Add(1)
	p.cfg.emit(Event{Kind: EventRetry, Root: it.root, Attempt: att, Err: msg})
	if !sleepCtx(p.ctx, p.cfg.backoff(it.idx, att+1)) {
		return
	}
	p.mu.Lock()
	// Re-check after the sleep: the watchdog may have requeued the item
	// already (queued), or a newer claim may own it now (current).
	if !it.done && it.current == gen && !it.queued {
		it.queued = true
		p.queue = append(p.queue, it)
		p.updateHungry()
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// donateFrom splits off every untried child of frame f (at the given
// depth of en's walk) as new queue items of the same root, logging
// each in the item's skip set first. It reports whether the frame's
// remaining children are now excised from this walk — false only when
// the attempt lost currency (superseded or resolved), in which case
// the walk continues unchanged and its result will be discarded at
// resolve.
func (p *stealPool) donateFrom(en *engine, depth int, f *frame) bool {
	it := en.item
	p.mu.Lock()
	defer p.mu.Unlock()
	if it.done || it.current != en.attempt || p.shutdown {
		return false
	}
	count := en.childCount(f)
	if f.next >= count {
		return false
	}
	donated := 0
	for idx := f.next; idx < count; idx++ {
		c := en.childChoice(f, idx)
		prefix := make([]Choice, 0, len(en.root)+depth+1)
		prefix = append(prefix, en.root...)
		prefix = append(prefix, en.path[:depth]...)
		prefix = append(prefix, c)
		key := FormatSchedule(prefix)
		if it.skip[key] {
			continue // already excised by an earlier attempt's donation
		}
		if it.skip == nil {
			it.skip = make(map[string]bool)
		}
		it.skip[key] = true
		it.skipSeqs = append(it.skipSeqs, prefix)
		p.queue = append(p.queue, &stealItem{pool: p, idx: p.itemSeq, root: it.root, prefix: prefix, donor: en.workerID, queued: true})
		p.itemSeq++
		p.outstanding++
		p.roots[it.root].open++
		donated++
	}
	en.skipcheck = true
	if donated > 0 {
		p.donations.Add(uint64(donated))
		p.updateHungry()
		p.cond.Broadcast()
	}
	return true
}

// watchdog requeues items whose claimed attempt stopped heartbeating,
// spawning a replacement worker so a wedged goroutine cannot shrink
// the pool; an item out of attempts is settled as failed so the pool
// still drains.
func (p *stealPool) watchdog() {
	defer p.wg.Done()
	tick := p.cfg.stall / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.finished:
			return
		case <-p.ctx.Done():
			return
		case now := <-t.C:
			// Events and sinks run once the lock is released.
			var requeued, settled []int
			p.mu.Lock()
			for cl := range p.claims {
				if cl.gone {
					continue
				}
				if v := cl.hb.Load(); cl.lastAt.IsZero() || v != cl.last {
					cl.last, cl.lastAt = v, now
					continue
				}
				if now.Sub(cl.lastAt) < p.cfg.stall {
					continue
				}
				cl.gone = true
				cl.cancel()
				it := cl.it
				if it.done {
					continue
				}
				if it.attempts < p.cfg.maxAttempts {
					if !it.queued {
						p.cfg.stats.Requeues.Add(1)
						requeued = append(requeued, it.root)
						it.queued = true
						p.queue = append(p.queue, it)
						p.updateHungry()
						p.cond.Broadcast()
						p.wg.Add(1)
						id := p.nextWorker
						p.nextWorker++
						go p.worker(id)
					}
				} else if p.failLocked(it, fmt.Sprintf("stalled: no heartbeat progress for %v", p.cfg.stall)) {
					settled = append(settled, it.root)
				}
			}
			p.mu.Unlock()
			for _, i := range requeued {
				p.cfg.emit(Event{Kind: EventRequeue, Root: i})
			}
			for _, i := range settled {
				p.fire(i)
			}
		}
	}
}
