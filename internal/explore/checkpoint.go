package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/sim"
)

// Checkpointed census exploration: long-running censuses periodically
// persist their progress so a killed process can resume instead of
// restarting. The unit of checkpointing is a frontier root (the same
// subtree split parallel exploration uses): roots are deterministic
// given the builder and options, each root's census summary is
// self-contained, and a summary is only ever recorded after its subtree
// was fully explored — so a resumed run credits recorded roots and
// re-explores the rest, landing on the exact census a single
// uninterrupted run produces. Representative violation outcomes are
// persisted as schedules and rebuilt by replay on load, so the file
// stays small and plain JSON.

// Checkpoint configures the persistence of RunCheckpointed and
// ExploreSubtree.
type Checkpoint struct {
	// Path is the checkpoint file. It is written atomically
	// (temp file + rename), so a kill mid-save leaves the previous
	// checkpoint intact. Empty disables persistence.
	Path string
	// Every saves the file after every Every newly completed roots
	// (plus once at the end). Zero means 8.
	Every int
	// Resume loads Path before exploring, crediting its recorded roots
	// — provided its key matches this builder/options frontier; a
	// foreign or unreadable file is ignored and the run starts fresh,
	// while the same exploration under different engine options is
	// refused with an error.
	Resume bool

	// stopAfterRoots is a test hook: abort the run (with errStopped)
	// after this many newly completed roots, simulating a kill between
	// checkpoint saves.
	stopAfterRoots int
}

// CheckpointStats reports what a checkpointed run did.
type CheckpointStats struct {
	// TotalRoots is the number of subtree roots in the frontier.
	TotalRoots int
	// ResumedRoots is how many were credited from the checkpoint file.
	ResumedRoots int
	// Saves counts checkpoint writes (including the final one).
	Saves int
	// Retries and Requeues count supervisor recoveries during the run
	// (failed-attempt retries and watchdog requeues respectively).
	Retries  int
	Requeues int
	// Warning is set when Resume found a file it could not use — a
	// corrupt or unreadable checkpoint, or one keyed to a different
	// exploration. The run starts fresh; a missing file is a normal
	// fresh start and produces no warning.
	Warning string
}

// errStopped reports a run aborted by the stopAfterRoots test hook.
var errStopped = errors.New("explore: checkpointed run stopped")

// ckRoot is one fully explored subtree in the checkpoint file: the
// exported per-root record, flattened into the same JSON object.
type ckRoot struct {
	RootSummary
	// Err is kept for decoding files from before the supervisor;
	// failed roots are no longer persisted (so a resume retries them)
	// and Err'd records from old files are simply not credited.
	Err string `json:"err,omitempty"`
}

// ckFile is the checkpoint file layout.
type ckFile struct {
	// Key fingerprints the exploration (options + frontier prefixes):
	// a checkpoint is only resumable into the identical exploration.
	Key uint64 `json:"key"`
	// Frontier and Opts split Key's two ingredients so resume can tell
	// "different exploration" (ignore, start fresh) from "same
	// exploration under different engine options" (refuse loudly: the
	// caller almost certainly forgot a -symmetry/-sleepsets/-objfaults
	// flag, and silently restarting would explore under the wrong
	// reduction). Zero/empty in files from before this split — those
	// degrade to the old ignore-with-warning behavior.
	Frontier uint64            `json:"frontier,omitempty"`
	Opts     string            `json:"opts,omitempty"`
	Done     map[string]ckRoot `json:"done"`
}

// RunCheckpointed is Run with periodic progress persistence. It
// explores the frontier roots on Options.Workers workers of the
// work-stealing pool (retry with backoff, stall watchdog, chaos when
// configured, donation, orbit folding under symmetry), records each
// root once every item of it has resolved, saves every
// Checkpoint.Every settled roots, and — with Checkpoint.Resume —
// credits roots recorded by a previous (interrupted) invocation with
// the same builder and options. The final census is bit-identical to
// Run's in every count; like parallel censuses, only the ≤5 recorded
// representatives may differ, and MaxRuns is enforced per work item
// rather than globally.
//
// Cancellation through Options.Context is root-granular: in-flight
// roots are discarded, settled ones are flushed to the checkpoint,
// and the returned census carries the settled roots' counts with
// Cancelled set — resuming later completes to the identical census.
// Roots with an item that exhausted the supervisor's attempt budget
// are reported in FailedRoots and deliberately NOT persisted, so a
// resume retries them.
//
// If the tree cannot be frontier-split under MaxRuns, it falls back to
// a plain Run with no checkpointing (stats zero).
func RunCheckpointed(b Builder, opts Options, check func(*sim.Result) error, ck Checkpoint) (*Census, CheckpointStats, error) {
	// Resolve symmetry up front so the Canonicalizer is built and
	// audited once and rides through Options into every root engine,
	// with the census's outcome interner. A refusal also lands here
	// (Symmetry flips off), making the checkpoint key fold the
	// EFFECTIVE reducer set deterministically.
	opts = censusOptions(b, opts.withDefaults())
	items, ok := frontier(b, opts, opts.workerCount())
	if !ok {
		return Run(b, opts, check), CheckpointStats{}, nil
	}
	return checkpointedCensus(b, opts, check, items, censusHeader(opts, items), ck, nil)
}

// checkpointedCensus is the one checkpointed driver, shared by
// RunCheckpointed (the whole frontier) and ExploreSubtree (one work
// item's sub-frontier): it credits the roots hdr's file recorded
// (with Checkpoint.Resume), explores the rest on the steal pool,
// records each root as it settles, saves every Checkpoint.Every of
// them and once at the end. An empty Checkpoint.Path skips
// persistence. beat, when non-nil, fires on every engine step of every
// attempt. opts must be resolved (censusOptions).
func checkpointedCensus(b Builder, opts Options, check func(*sim.Result) error, items []frontierItem, hdr ckHeader, ck Checkpoint, beat func()) (*Census, CheckpointStats, error) {
	var stats CheckpointStats
	for _, it := range items {
		if it.prefix != nil {
			stats.TotalRoots++
		}
	}
	var done map[int]RootSummary
	if ck.Resume && ck.Path != "" {
		var err error
		if done, stats.Warning, err = hdr.resume(ck.Path, items); err != nil {
			return nil, stats, err
		}
		stats.ResumedRoots = len(done)
	}
	if done == nil {
		done = make(map[int]RootSummary)
	}
	every := ck.Every
	if every <= 0 {
		every = 8
	}

	var table *pruneTable
	if opts.Prune {
		table = newPruneTable(opts.PruneTableEntries)
	}
	// stopCtx lets the stopAfterRoots test hook cancel the pool through
	// the same path a real kill or deadline takes.
	stopCtx, stopCancel := context.WithCancel(opts.ctx())
	defer stopCancel()
	opts.Context = stopCtx
	p := newStealPool(b, opts, check, table, items)
	p.beat = beat
	for i, r := range done {
		p.roots[i] = r.settled(b, opts)
	}

	var (
		saveMu    sync.Mutex
		unsaved   int
		newlyDone int
		hookStop  bool
	)
	save := func() error { // callers hold saveMu
		if ck.Path == "" {
			return nil
		}
		if err := hdr.save(ck.Path, done); err != nil {
			return err
		}
		stats.Saves++
		unsaved = 0
		return nil
	}
	p.sink = func(i int, r RootSummary) {
		saveMu.Lock()
		done[i] = r
		newlyDone++
		unsaved++
		if unsaved >= every {
			save() // best-effort mid-run; the final save reports errors
		}
		stop := ck.stopAfterRoots > 0 && newlyDone >= ck.stopAfterRoots && !hookStop
		if stop {
			hookStop = true
		}
		saveMu.Unlock()
		if stop {
			stopCancel()
		}
	}
	c := p.census(opts.workerCount())
	stats.Retries = int(p.cfg.stats.Retries.Load())
	stats.Requeues = int(p.cfg.stats.Requeues.Load())

	saveMu.Lock()
	err := save()
	saveMu.Unlock()
	if err != nil {
		return nil, stats, fmt.Errorf("explore: checkpoint save: %w", err)
	}
	if hookStop {
		return nil, stats, errStopped
	}
	return c, stats, nil
}

// ckHeader identifies the exploration a checkpoint file records: key
// must match for the file to be credited; frontier and opts, when set,
// tell a foreign exploration (ignored with a warning) from the same
// exploration under different engine options (refused).
type ckHeader struct {
	key      uint64
	frontier uint64
	opts     string
}

// censusHeader is the header of a whole-census checkpoint over items.
func censusHeader(opts Options, items []frontierItem) ckHeader {
	return ckHeader{key: checkpointKey(opts, items), frontier: frontierFingerprint(items), opts: optionsFingerprint(opts)}
}

// resume loads path's creditable roots of items. A missing file is a
// silent fresh start, a corrupt or foreign file is ignored with a
// warning, and a file recording the same exploration under different
// engine options is a hard error.
func (h ckHeader) resume(path string, items []frontierItem) (map[int]RootSummary, string, error) {
	f, warn := loadCheckpointTolerant(path)
	switch {
	case f == nil:
		return nil, warn, nil
	case f.Key != h.key:
		// Same exploration tree but different engine options is a
		// hard error: the caller believes they are resuming the run
		// that wrote the checkpoint, and silently starting fresh
		// would explore under the wrong reduction/budget settings.
		// (Files from before the Frontier/Opts split carry neither
		// field and keep the ignore-with-warning behavior.)
		if f.Frontier == h.frontier && f.Opts != "" && f.Opts != h.opts {
			return nil, "", fmt.Errorf(
				"explore: checkpoint %s records the same exploration under different engine options (checkpoint %q, this run %q); refusing to resume — rerun with the original options or delete the checkpoint",
				path, f.Opts, h.opts)
		}
		return nil, "checkpoint ignored: key mismatch (different builder or options); starting fresh", nil
	}
	return f.rootsOf(items), "", nil
}

// save writes the settled roots under the header, atomically and
// durably.
func (h ckHeader) save(path string, done map[int]RootSummary) error {
	f := ckFile{Key: h.key, Frontier: h.frontier, Opts: h.opts, Done: make(map[string]ckRoot, len(done))}
	for i, r := range done {
		f.Done[strconv.Itoa(i)] = ckRoot{RootSummary: r}
	}
	return saveCheckpoint(path, &f)
}

// rootsOf lists the file's creditable records: a root of items (not a
// leaf, in range) recorded without an error.
func (f *ckFile) rootsOf(items []frontierItem) map[int]RootSummary {
	out := make(map[int]RootSummary)
	for k, v := range f.Done {
		if i, err := strconv.Atoi(k); err == nil && i >= 0 && i < len(items) &&
			items[i].prefix != nil && v.Err == "" {
			out[i] = v.RootSummary
		}
	}
	return out
}

// rootSummaryOf flattens a subtree summary into its persisted form:
// outcome IDs rendered to decision fingerprints, representatives
// reduced to their schedules.
func rootSummaryOf(s *summary, ids *outcomeIDs, capped bool) RootSummary {
	out := RootSummary{
		Complete:   s.complete,
		Incomplete: s.incomplete,
		Outcomes:   ids.outcomeMap(s.outcomes),
		Violations: s.violations,
		Capped:     capped,
	}
	for _, rep := range s.reps {
		out.Reps = append(out.Reps, rep.Schedule)
	}
	return out
}

// toSummary rebuilds a summary from its persisted form, interning its
// decision fingerprints in the census's outcome IDs and replaying the
// recorded representative schedules to recover their Results.
func (r RootSummary) toSummary(b Builder, opts Options) *summary {
	s := &summary{
		complete:   r.Complete,
		incomplete: r.Incomplete,
		violations: r.Violations,
	}
	for k, v := range r.Outcomes {
		id := int(opts.ids.id(k))
		s.grow(id + 1)
		s.outcomes[id] = v
	}
	for _, sched := range r.Reps {
		res, _ := replayPrefix(b, opts, sched)
		s.reps = append(s.reps, Outcome{Schedule: sched, Result: res})
	}
	return s
}

// optionsFingerprint renders the option fields that shape the census —
// budgets and reducers — as a short stable string. It is stored
// verbatim in the checkpoint file so an options mismatch can be
// reported in the error, not just detected.
func optionsFingerprint(opts Options) string {
	return fmt.Sprintf("d%d c%d f%d m%v r%d s%d y%t z%t",
		opts.MaxDepth, opts.MaxCrashes, opts.ObjectFaults, opts.FaultModes,
		opts.MaxRuns, opts.MaxStepsPerProc, opts.Symmetry, opts.SleepSets)
}

// foldString continues an FNV-1a fold over s.
func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// foldItems continues an FNV-1a fold over every frontier item's
// schedule, in order. It is the prefix part of every checkpoint key.
func foldItems(h uint64, items []frontierItem) uint64 {
	for _, it := range items {
		if it.prefix != nil {
			h = foldString(h, "|"+FormatSchedule(it.prefix))
		} else {
			h = foldString(h, "|leaf:"+FormatSchedule(it.leaf.Schedule))
		}
	}
	return h
}

// frontierFingerprint hashes every frontier prefix. Builders are
// functions and cannot be hashed directly; the frontier, being the
// builder's observable branching structure down to the split, stands
// in for it.
func frontierFingerprint(items []frontierItem) uint64 {
	return foldItems(fnvOffset, items)
}

// checkpointKey fingerprints the exploration: the option fields that
// shape the tree plus every frontier prefix. The fold order (options
// string, then prefixes) is preserved from earlier releases so their
// checkpoints still resume.
func checkpointKey(opts Options, items []frontierItem) uint64 {
	return foldItems(foldString(fnvOffset, optionsFingerprint(opts)), items)
}

// FNV-1a constants (local copy; sim keeps its own unexported ones).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func loadCheckpoint(path string) (*ckFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ckFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// loadCheckpointTolerant loads a checkpoint for resume. A missing file
// is a normal fresh start (nil, no warning); an unreadable or corrupt
// (e.g. truncated) file is tolerated — the run starts fresh and the
// warning says why, instead of failing a resumable run.
func loadCheckpointTolerant(path string) (*ckFile, string) {
	f, err := loadCheckpoint(path)
	switch {
	case err == nil:
		return f, ""
	case os.IsNotExist(err):
		return nil, ""
	default:
		return nil, fmt.Sprintf("checkpoint ignored (unreadable or corrupt: %v); starting fresh", err)
	}
}

// saveCheckpoint writes the file durably: the temp file is fsynced
// before the atomic rename and the parent directory after it, so a
// machine crash cannot surface an empty or stale file under the final
// name despite the rename's atomicity. The directory sync is
// best-effort — not every filesystem supports it.
func saveCheckpoint(path string, f *ckFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}
