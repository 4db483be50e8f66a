package explore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Parallel exploration: the tree is split at a shallow depth into an
// ordered frontier of subtree roots (plus the terminal runs that end
// above the split); workers claim roots from a shared index — a
// work-stealing queue degenerated to its essential half, dynamic load
// balancing — and the results are merged back in frontier order, so
// every observable (visit order, run counts, census totals) is
// bit-identical to the sequential walk. The sequencer doubles as the
// supervisor for streamed visits: a root whose worker panics or stalls
// is re-walked inline with the already-delivered prefix skipped —
// attempts are idempotent replays, so retry changes nothing observable.

// frontierItem is one entry of the split frontier, in sequential DFS
// order: either a terminal run above the split (leaf) or a subtree
// root's schedule prefix.
type frontierItem struct {
	leaf   *Outcome
	prefix []Choice
}

// frontier splits the whole tree at a depth chosen so that there are
// comfortably more roots than workers (≥8× for load balance).
func frontier(b Builder, opts Options, workers int) ([]frontierItem, bool) {
	return splitFrontier(b, opts, nil, 8*workers, 24)
}

// splitFrontier enumerates the subtree under prefix down to the
// shallowest split depth (counted below prefix) with at least target
// roots, stopping early when no roots remain, when the split would
// swallow the depth budget (deep narrow trees), or at maxSplit. ok is
// false when enumeration hit MaxRuns or Options.Context was cancelled,
// or when every run ends within one step of prefix — the caller should
// walk the subtree whole, which owns the exact cap/cancel semantics.
func splitFrontier(b Builder, opts Options, prefix []Choice, target, maxSplit int) (items []frontierItem, ok bool) {
	base := len(prefix)
	for split := 1; ; split++ {
		items = items[:0]
		roots := 0
		shallow := opts
		shallow.MaxDepth = base + split
		en := &engine{b: b, opts: shallow, root: prefix, ctx: opts.Context, visit: func(o Outcome) bool {
			if o.Result.Halted && len(o.Schedule) == base+split {
				items = append(items, frontierItem{prefix: o.Schedule})
				roots++
			} else {
				// A genuine terminal of the full tree: it completed (or
				// hit MaxStepsPerProc crashes) before the split depth.
				oc := o
				items = append(items, frontierItem{leaf: &oc})
			}
			return true
		}}
		en.run()
		if en.capped || en.cancelled || (roots == 0 && split == 1) {
			return nil, false
		}
		if roots >= target || roots == 0 || base+split+1 >= opts.MaxDepth || split >= maxSplit {
			return items, true
		}
	}
}

// parallelVisit is Visit fanned out over workers. Each root's outcomes
// stream through a bounded channel; the calling goroutine plays the
// sequencer, delivering outcomes to visit in exact sequential DFS
// order and enforcing MaxRuns globally, so runs/exhaustive/visit-order
// semantics match sequentialVisit bit for bit. A root whose worker
// fails (panic) or stalls (heartbeat frozen past the watchdog timeout)
// is retried inline on the sequencer goroutine with the delivered
// prefix skipped, up to the supervision attempt budget; only then is it
// reported as a RootFailure.
func parallelVisit(b Builder, opts Options, visit func(Outcome) bool) (int, bool, []RootFailure, bool) {
	workers := opts.workerCount()
	ctx := opts.ctx()
	items, ok := frontier(b, opts, workers)
	if !ok {
		runs, exhaustive, cancelled := sequentialVisit(b, opts, visit)
		return runs, exhaustive, nil, cancelled
	}
	cfg := opts.supervise()
	wb := cfg.wrapChaos(b)
	type rootState struct {
		ch      chan Outcome
		abandon chan struct{} // closed by the sequencer when the root stalls
		started atomic.Bool   // claimed by a worker (stall detection gate)
		hb      atomic.Int64  // worker heartbeat (engine steps)
		capped  bool          // written before ch closes; read after — safe
		err     string        // recovered worker panic, same publication rule
	}
	states := make([]*rootState, len(items))
	for i, it := range items {
		if it.prefix != nil {
			states[i] = &rootState{ch: make(chan Outcome, 64), abandon: make(chan struct{})}
		}
	}
	done := make(chan struct{})
	ctxDone := ctx.Done()
	var aborted, anyCancelled atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) || aborted.Load() || ctx.Err() != nil {
					return
				}
				st := states[i]
				if st == nil {
					continue
				}
				st.started.Store(true)
				// Recover panics from the builder or the engine into a
				// per-subtree error: the walk over the other roots keeps
				// going and the sequencer retries the loss. (Panics inside
				// spawned PROCESS goroutines are protocol bugs the runner
				// deliberately re-raises; those still crash — only
				// harness-side panics are survivable.)
				func() {
					defer func() {
						if r := recover(); r != nil {
							st.err = fmt.Sprintf("panic: %v", r)
						}
						close(st.ch)
					}()
					en := &engine{b: wb, opts: opts, root: items[i].prefix, ctx: ctx,
						visit: func(o Outcome) bool {
							select {
							case st.ch <- o:
								return true
							case <-done:
								return false
							case <-st.abandon:
								return false
							}
						}}
					if cfg.stall > 0 {
						en.onStep = func() { st.hb.Add(1) }
					}
					en.run()
					if en.cancelled {
						anyCancelled.Store(true)
					}
					st.capped = en.capped
				}()
			}
		}()
	}

	runs := 0
	visitOK := true
	capped := false
	cancelled := false
	var failed []RootFailure

	// retry re-walks root i inline, skipping the outcomes already
	// delivered from the failed attempt — engine order is deterministic,
	// so the skip is exact. It shares the global runs/capped/visitOK/
	// cancelled accounting through the closure.
	retry := func(i, skip int) (errStr string, rootCapped bool, delivered int) {
		defer func() {
			if r := recover(); r != nil {
				errStr = fmt.Sprintf("panic: %v", r)
			}
		}()
		seen := 0
		en := &engine{b: wb, opts: opts, root: items[i].prefix, ctx: ctx,
			visit: func(o Outcome) bool {
				seen++
				if seen <= skip {
					return true
				}
				if runs >= opts.MaxRuns {
					capped = true
					return false
				}
				runs++
				delivered++
				if !visit(o) {
					visitOK = false
					return false
				}
				return true
			}}
		en.run()
		if en.cancelled {
			cancelled = true
		}
		return "", en.capped, delivered
	}

	// recvWatch receives one outcome with the stall watchdog armed: a
	// claimed root whose heartbeat freezes for cfg.stall is abandoned
	// (the worker's engine stops at its next delivery attempt) and
	// handed to retry. Unclaimed roots never trip it — waiting for a
	// busy pool is not a stall.
	recvWatch := func(st *rootState) (o Outcome, open, stalled, dead bool) {
		last := st.hb.Load()
		t := time.NewTimer(cfg.stall)
		defer t.Stop()
		for {
			select {
			case o, open = <-st.ch:
				return o, open, false, false
			case <-ctxDone:
				return Outcome{}, false, false, true
			case <-t.C:
				if !st.started.Load() {
					t.Reset(cfg.stall)
					continue
				}
				if cur := st.hb.Load(); cur != last {
					last = cur
					t.Reset(cfg.stall)
					continue
				}
				cfg.stats.Requeues.Add(1)
				close(st.abandon)
				return Outcome{}, false, true, false
			}
		}
	}

deliver:
	for i, it := range items {
		st := states[i]
		if st == nil {
			if ctx.Err() != nil {
				cancelled = true
				break deliver
			}
			if runs >= opts.MaxRuns {
				capped = true
				break deliver
			}
			runs++
			if !visit(*it.leaf) {
				visitOK = false
				break deliver
			}
			continue
		}
		delivered := 0
		stalled := false
	recvLoop:
		for {
			var o Outcome
			var open bool
			if cfg.stall > 0 {
				var dead bool
				o, open, stalled, dead = recvWatch(st)
				if dead {
					cancelled = true
					break deliver
				}
				if stalled {
					break recvLoop
				}
			} else {
				select {
				case o, open = <-st.ch:
				case <-ctxDone:
					cancelled = true
					break deliver
				}
			}
			if !open {
				break recvLoop
			}
			if runs >= opts.MaxRuns {
				capped = true
				break deliver
			}
			runs++
			delivered++
			if !visit(o) {
				visitOK = false
				break deliver
			}
		}
		// Root stream ended: classify, then retry failures inline. After
		// a stall the worker may still be wedged, so its capped/err
		// fields are off-limits — the retry recomputes them.
		var errStr string
		rootCapped := false
		if stalled {
			errStr = fmt.Sprintf("stalled: no heartbeat progress for %v", cfg.stall)
		} else {
			errStr = st.err
			rootCapped = st.capped
		}
		attempt := 1
		for errStr != "" && attempt < cfg.maxAttempts {
			if !sleepCtx(ctx, cfg.backoff(i, attempt+1)) {
				cancelled = true
				break deliver
			}
			attempt++
			cfg.stats.Attempts.Add(1)
			cfg.stats.Retries.Add(1)
			var d int
			errStr, rootCapped, d = retry(i, delivered)
			delivered += d
			if capped || !visitOK || cancelled {
				break deliver
			}
		}
		if errStr != "" {
			cfg.stats.Failed.Add(1)
			failed = append(failed, RootFailure{Prefix: items[i].prefix, Attempts: attempt, Err: errStr})
			continue
		}
		if rootCapped {
			// The worker hit MaxRuns inside this subtree, so the global
			// count has too: report the truncation.
			capped = true
			break deliver
		}
	}
	aborted.Store(true)
	close(done)
	wg.Wait()
	cancelled = cancelled || anyCancelled.Load()
	exhaustive := visitOK && !capped && len(failed) == 0 && !cancelled
	return runs, exhaustive, failed, cancelled
}
