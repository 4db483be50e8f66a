package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/objects"
	"repro/internal/sim"
)

// casLoopMachine is the machine twin of casLoop's Program: the same
// CAS/read round pattern, expressed as a resumable state machine.
type casLoopMachine struct {
	cas    *objects.CAS
	id     int
	rounds int
	r, pc  int
}

func (m *casLoopMachine) Pending() sim.MachineOp {
	if m.pc == 0 {
		return sim.MachineOp{
			Obj: m.cas, Op: objects.OpCAS, NArgs: 2,
			Args: [2]sim.Value{objects.Bottom, objects.Symbol(m.id + 1)},
		}
	}
	return sim.MachineOp{Obj: m.cas, Op: sim.OpRead}
}

func (m *casLoopMachine) Finish(sim.Value) (bool, sim.Value, error) {
	if m.pc == 0 {
		m.pc = 1
		return false, nil, nil
	}
	m.pc = 0
	m.r++
	if m.r == m.rounds {
		return true, m.id, nil
	}
	return false, nil, nil
}

func (m *casLoopMachine) Save(s *sim.Snap) {
	s.Int(m.r)
	s.Int(m.pc)
}

func (m *casLoopMachine) Restore(r *sim.SnapReader) {
	m.r = r.Int()
	m.pc = r.Int()
}

// casLoopMachines is casLoop with machine-backed processes: identical
// objects, op sequence and decisions, so runs must be bit-identical.
func casLoopMachines(rounds int) *sim.System {
	sys := sim.NewSystem()
	cas := objects.NewCAS("c", 4)
	sys.Add(cas)
	for id := 0; id < 2; id++ {
		sys.SpawnMachine(&casLoopMachine{cas: cas, id: id, rounds: rounds})
	}
	return sys
}

// sameResult asserts the observable fields of two Results are
// identical (errors compared by rendering).
func sameResult(t *testing.T, label string, a, b *sim.Result) {
	t.Helper()
	if a.TotalSteps != b.TotalSteps || a.Halted != b.Halted {
		t.Fatalf("%s: totals differ: (%d,%v) vs (%d,%v)", label, a.TotalSteps, a.Halted, b.TotalSteps, b.Halted)
	}
	if a.Fingerprint != b.Fingerprint || a.FingerprintOK != b.FingerprintOK {
		t.Fatalf("%s: fingerprints differ: %x/%v vs %x/%v", label, a.Fingerprint, a.FingerprintOK, b.Fingerprint, b.FingerprintOK)
	}
	for i := range a.Values {
		if fmt.Sprint(a.Values[i]) != fmt.Sprint(b.Values[i]) ||
			fmt.Sprint(a.Errors[i]) != fmt.Sprint(b.Errors[i]) ||
			a.Crashed[i] != b.Crashed[i] || a.Steps[i] != b.Steps[i] {
			t.Fatalf("%s: proc %d differs: (%v,%v,%v,%d) vs (%v,%v,%v,%d)", label, i,
				a.Values[i], a.Errors[i], a.Crashed[i], a.Steps[i],
				b.Values[i], b.Errors[i], b.Crashed[i], b.Steps[i])
		}
	}
}

// TestMachineRunMatchesGoroutine drives the same machine-backed system
// through the direct-dispatch path and (via ForceGoroutines) the
// goroutine runner, and against the hand-written Program twin, under
// several schedules and fault plans. All three must agree on every
// observable field including the state fingerprint.
func TestMachineRunMatchesGoroutine(t *testing.T) {
	cases := []struct {
		name  string
		sched func() sim.Scheduler
		plan  func() sim.FaultPlan
		limit int
	}{
		{name: "roundrobin", sched: func() sim.Scheduler { return &rrSched{} }},
		{name: "random", sched: func() sim.Scheduler { return sim.Random(42) }},
		{name: "crash", sched: func() sim.Scheduler { return &rrSched{} },
			plan: func() sim.FaultPlan { return sim.CrashAt(map[int][]sim.ProcID{3: {0}}) }},
		{name: "steplimit", sched: func() sim.Scheduler { return &rrSched{} }, limit: 5},
		{name: "halt", sched: func() sim.Scheduler {
			return sim.Replay([]sim.ProcID{0, 1, 0, 1, 0})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sys *sim.System, force bool) *sim.Result {
				cfg := sim.Config{
					Scheduler:       tc.sched(),
					Fingerprint:     true,
					DisableTrace:    true,
					MaxStepsPerProc: tc.limit,
					ForceGoroutines: force,
				}
				if tc.plan != nil {
					cfg.Faults = tc.plan()
				}
				res, err := sys.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			direct := run(casLoopMachines(6), false)
			forced := run(casLoopMachines(6), true)
			program := run(casLoop(6), true)
			sameResult(t, "direct vs forced-goroutine", direct, forced)
			sameResult(t, "direct vs program", direct, program)
		})
	}
}

// stepIdxSched is a stateless scheduler (a pure function of the ready
// set and step count), so an execution restored from a snapshot
// continues under the same decisions without scheduler state to rewind.
type stepIdxSched struct{}

func (stepIdxSched) Next(ready []sim.ProcID, step int) sim.ProcID {
	return ready[step%len(ready)]
}

// TestMachineSnapshotRestore checks the backtracking primitive at the
// sim level: snapshot the initial state, run to completion, restore,
// run again — both completions must be bit-identical.
func TestMachineSnapshotRestore(t *testing.T) {
	sys := casLoopMachines(6)
	me, err := sys.StartMachines(sim.Config{
		Scheduler:    stepIdxSched{},
		Fingerprint:  true,
		DisableTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap sim.Snap
	me.Snapshot(&snap) // initial state at offset (0,0)
	res1, err := me.Run()
	if err != nil {
		t.Fatal(err)
	}
	fp1, v1 := res1.Fingerprint, fmt.Sprint(res1.Values)

	// Restore the initial snapshot and re-run: identical completion.
	rd := snap.ReaderAt(0, 0)
	me.Restore(&rd)
	res2, err := me.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fingerprint != fp1 || fmt.Sprint(res2.Values) != v1 {
		t.Fatalf("restored run differs: %x %v vs %x %v", res2.Fingerprint, res2.Values, fp1, v1)
	}
}

// TestMachineStepAllocFree is TestSimStepAllocFree for the direct-
// dispatch path: with a reused Scratch, fingerprinting on and tracing
// off, an additional machine step must allocate NOTHING. Same
// differential method — 256 extra steps, delta must be zero.
func TestMachineStepAllocFree(t *testing.T) {
	// Three fingerprint regimes: lazy (fingerprint on but never read
	// mid-run, the plain-census configuration), "on" (the incremental
	// plain cache read at every decision point), and "canon" (a
	// symmetric system with the per-permutation cache read at every
	// decision point). Steady-state steps must allocate nothing in all
	// of them — the fingerprint vectors are Scratch-backed and fixed
	// size, so extra steps only recompute into existing buffers.
	modes := []struct {
		name  string
		canon bool
		read  bool
	}{
		{name: "lazy"},
		{name: "on", read: true},
		{name: "canon", canon: true, read: true},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			sc := sim.NewScratch()
			var canon *sim.Canonicalizer
			if mode.canon {
				probe := symLoopMachines(1, 3)
				var err error
				canon, err = sim.NewCanonicalizer(probe, probe.SymmetrySpec())
				if err != nil {
					t.Fatal(err)
				}
			}
			var sys *sim.System
			rr := 0
			sched := sim.SchedulerFunc(func(ready []sim.ProcID, _ int) sim.ProcID {
				if mode.read {
					if mode.canon {
						sys.StateHashCanon()
					} else if _, ok := sys.StateHash(); !ok {
						t.Fatal("fingerprint unavailable mid-run")
					}
				}
				rr++
				return ready[rr%len(ready)]
			})
			allocs := func(rounds int) float64 {
				return testing.AllocsPerRun(20, func() {
					if mode.canon {
						sys = symLoopMachines(rounds, 3)
					} else {
						sys = casLoopMachines(rounds)
					}
					_, err := sys.Run(sim.Config{
						Scheduler:    sched,
						Fingerprint:  true,
						Canon:        canon,
						DisableTrace: true,
						Scratch:      sc,
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			// Min-of-two measurements, and a fail threshold of 2: under
			// -race the runtime's type-switch/assert cache builds and
			// GC-timed fmt-pool refills add a few rounds-INDEPENDENT
			// stray allocations per block, which AllocsPerRun's integer
			// division can turn into a spurious 1.0 delta. Any real
			// steady-state allocation is per step (+768/run here) or at
			// least per round (+64/run) — orders of magnitude above the
			// threshold.
			min2 := func(rounds int) float64 {
				a, b := allocs(rounds), allocs(rounds)
				if b < a {
					return b
				}
				return a
			}
			short := min2(32)
			long := min2(96)
			if delta := long - short; delta >= 2 {
				t.Fatalf("extra machine steps allocate %.1f objects, want 0 (short=%.1f long=%.1f)",
					delta, short, long)
			}
		})
	}
}

// TestMachineSnapshotMidRun snapshots at an interior decision point
// (from inside the scheduler, where the state is quiescent), runs to
// completion, restores, and completes again under the same stateless
// schedule: the two completions must agree bit-for-bit.
func TestMachineSnapshotMidRun(t *testing.T) {
	var (
		me   *sim.MachineExec
		snap sim.Snap
		took bool
	)
	snapAt := sim.SchedulerFunc(func(ready []sim.ProcID, step int) sim.ProcID {
		if step == 7 && !took {
			took = true
			me.Snapshot(&snap)
		}
		return ready[step%len(ready)]
	})
	sys := casLoopMachines(6)
	var err error
	me, err = sys.StartMachines(sim.Config{
		Scheduler:    snapAt,
		Fingerprint:  true,
		DisableTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := me.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !took {
		t.Fatal("snapshot point never reached")
	}
	fp1, v1 := res1.Fingerprint, fmt.Sprint(res1.Values)
	rd := snap.ReaderAt(0, 0)
	me.Restore(&rd)
	res2, err := me.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fingerprint != fp1 || fmt.Sprint(res2.Values) != v1 {
		t.Fatalf("mid-run restore diverged: %x %v vs %x %v", res2.Fingerprint, res2.Values, fp1, v1)
	}
}

// haltAtSched halts the run at step `at` while armed and otherwise
// schedules like stepIdxSched.
type haltAtSched struct {
	at    int
	armed bool
}

func (s *haltAtSched) Next(ready []sim.ProcID, step int) sim.ProcID {
	if s.armed && step == s.at {
		return sim.Halt
	}
	return ready[step%len(ready)]
}

// TestRestoreAfterUnbuiltHalt: an episode that ends in a halt and is
// discarded without BuildResult (an explorer's table hit) leaves the
// still-ready processes unhalted; the next Restore must rewind
// everything regardless, so the following episode is bit-identical to
// a fresh run.
func TestRestoreAfterUnbuiltHalt(t *testing.T) {
	want, err := casLoopMachines(3).Run(sim.Config{Scheduler: stepIdxSched{}, Fingerprint: true, DisableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	sched := &haltAtSched{at: 5, armed: true}
	me, err := casLoopMachines(3).StartMachines(sim.Config{Scheduler: sched, Fingerprint: true, DisableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var snap sim.Snap
	me.Snapshot(&snap)
	halted, err := me.Resume()
	if err != nil || !halted {
		t.Fatalf("armed episode: halted=%v err=%v, want a halt", halted, err)
	}
	sched.armed = false
	rd := snap.ReaderAt(0, 0)
	me.Restore(&rd)
	got, err := me.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "after unbuilt halt", got, want)
}

// TestMachineRestoreAllocFree: restoring a snapshot — once per probe of
// the in-place DFS — allocates nothing when the reader lives in a
// long-lived variable.
func TestMachineRestoreAllocFree(t *testing.T) {
	me, err := casLoopMachines(3).StartMachines(sim.Config{Scheduler: stepIdxSched{}, Fingerprint: true, DisableTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var snap sim.Snap
	me.Snapshot(&snap)
	var rd sim.SnapReader
	allocs := testing.AllocsPerRun(100, func() {
		rd = snap.ReaderAt(0, 0)
		me.Restore(&rd)
	})
	if allocs != 0 {
		t.Fatalf("Restore allocates %.1f objects, want 0", allocs)
	}
}
