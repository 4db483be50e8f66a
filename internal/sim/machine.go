package sim

import (
	"errors"
	"fmt"
)

// This file is the direct-dispatch execution mode: processes written as
// explicit resumable state machines instead of goroutine-hosted
// Programs. A Machine exposes its next shared operation as data
// (Pending) and advances one operation at a time (Finish), so the
// runner can execute a step as a plain function call — zero goroutine
// creation, zero channel operations, no park/unpark per step. Because
// machine-local state lives in a plain struct, a machine-backed System
// can also be snapshotted and restored in place, which is what the
// explore package's in-place backtracking DFS builds on.
//
// Semantics are identical to the goroutine runner by construction: the
// machine loop performs the same scheduler/fault-plan/step sequence as
// System.Run, stages arguments through the same per-process buffer,
// folds the same observation hashes, and records the same trace events,
// so a machine-backed run and a goroutine run of the same protocol
// under the same schedule produce bit-identical Results and
// fingerprints. SpawnMachine installs a driver Program alongside the
// machine, so Config.ForceGoroutines (and any explorer that wants the
// goroutine path) replays machines through the original runner.

// MachineOp is the next shared operation a Machine wants to perform,
// described as data. At most two arguments — every operation in this
// repository has arity ≤ 2 (compare&swap) — staged in a fixed array so
// describing an op allocates nothing.
type MachineOp struct {
	// Obj is the target object (a pointer the machine holds, so no
	// name lookup is needed per step).
	Obj Object
	// Op is the operation kind.
	Op OpKind
	// NArgs is how many of Args are meaningful (0, 1 or 2).
	NArgs int
	// Args holds the operation arguments.
	Args [2]Value
}

// Machine is one process expressed as a resumable state machine. The
// contract mirrors a Program parked at its scheduler gate:
//
//   - Pending returns the operation the process will perform when next
//     scheduled. It must be a pure read (no state change) and stable:
//     repeated calls between Finish calls return the same op.
//   - Finish delivers the operation's result and advances the local
//     state. done=true ends the process with the given decision (or
//     error, like a Program returning one); done=false means the
//     machine has a next Pending op.
//   - Save/Restore serialize the machine-local state ("PC + locals")
//     into a Snap arena, enabling in-place backtracking. Restore must
//     leave the machine exactly as it was when Save ran.
//
// A Machine performs at least one shared operation (Pending must be
// valid before the first Finish); a protocol that can decide without
// any shared step must stay a Program. An operation whose result is an
// error kills the process through the runner exactly as it would a
// Program — Finish only ever sees successful results. (Failed-object
// sentinels from the faults package arrive as ordinary values.)
type Machine interface {
	Pending() MachineOp
	Finish(result Value) (done bool, decision Value, err error)
	Save(s *Snap)
	Restore(r *SnapReader)
}

// Restorable is implemented by Objects whose state can be saved into a
// Snap and restored in place. Like StateKeyer, the contract is
// observational: after RestoreState the object must be observationally
// identical to when SaveState ran. Implementations should reuse
// internal capacity on restore so steady-state backtracking allocates
// nothing.
type Restorable interface {
	SaveState(s *Snap)
	RestoreState(r *SnapReader)
}

// RestoreProber is an optional refinement for wrapper objects (e.g. a
// fault proxy) whose own Restorable support depends on the wrapped
// object's. Snapshotable consults it when present.
type RestoreProber interface {
	CanRestore() bool
}

// Snap is an append-only snapshot arena: machine words in one slice,
// boxed Values (decisions, errors, register contents) in another.
// Snapshots of nested states share one arena — a consumer records the
// arena lengths before writing a snapshot and truncates back to them
// when the snapshot is popped — so steady-state snapshotting reuses
// capacity and allocates nothing.
type Snap struct {
	words []uint64
	vals  []Value
}

// Len returns the current arena lengths, for later Truncate/ReaderAt.
func (s *Snap) Len() (words, vals int) { return len(s.words), len(s.vals) }

// Truncate drops everything written at or after the given lengths.
func (s *Snap) Truncate(words, vals int) {
	// Clear the dropped Values so the arena does not pin dead objects.
	for i := vals; i < len(s.vals); i++ {
		s.vals[i] = nil
	}
	s.words = s.words[:words]
	s.vals = s.vals[:vals]
}

// Reset empties the arena, keeping capacity.
func (s *Snap) Reset() { s.Truncate(0, 0) }

// Uint64 appends one machine word.
func (s *Snap) Uint64(v uint64) { s.words = append(s.words, v) }

// Int appends v as its two's-complement word image.
func (s *Snap) Int(v int) { s.Uint64(uint64(v)) }

// Bool appends one word holding 0 or 1.
func (s *Snap) Bool(b bool) {
	if b {
		s.Uint64(1)
	} else {
		s.Uint64(0)
	}
}

// Value appends one boxed value.
func (s *Snap) Value(v Value) { s.vals = append(s.vals, v) }

// ReaderAt returns a cursor positioned at the given arena offsets,
// ready to read back a snapshot written there.
func (s *Snap) ReaderAt(words, vals int) SnapReader {
	return SnapReader{s: s, w: words, v: vals}
}

// SnapReader reads a snapshot back in the order it was written.
type SnapReader struct {
	s    *Snap
	w, v int
}

// Uint64 reads the next machine word.
func (r *SnapReader) Uint64() uint64 {
	v := r.s.words[r.w]
	r.w++
	return v
}

// Int reads the next word as an int.
func (r *SnapReader) Int() int { return int(r.Uint64()) }

// Bool reads the next word as a bool.
func (r *SnapReader) Bool() bool { return r.Uint64() != 0 }

// Value reads the next boxed value.
func (r *SnapReader) Value() Value {
	v := r.s.vals[r.v]
	r.v++
	return v
}

// SpawnMachine adds a process driven by the given state machine and
// returns its ID. The process runs on the direct-dispatch fast path
// when the whole system is machine-backed (see Run); otherwise — or
// under Config.ForceGoroutines — it runs as an ordinary Program that
// drives the machine through Env, with identical semantics.
func (s *System) SpawnMachine(m Machine) ProcID {
	id := s.Spawn(machineProgram(m))
	s.procs[id].machine = m
	return id
}

// machineProgram adapts a Machine to the goroutine runner. It stages
// arguments through the same fixed-arity Env paths protocol code uses,
// so traces and fingerprints match the hand-written Program form.
func machineProgram(m Machine) Program {
	return func(e *Env) (Value, error) {
		for {
			op := m.Pending()
			var v Value
			switch op.NArgs {
			case 0:
				v = e.Apply0(op.Obj, op.Op)
			case 1:
				v = e.Apply1(op.Obj, op.Op, op.Args[0])
			default:
				v = e.Apply2(op.Obj, op.Op, op.Args[0], op.Args[1])
			}
			done, dec, err := m.Finish(v)
			if done {
				return dec, err
			}
		}
	}
}

// machineBacked reports whether every process has a Machine, i.e. the
// direct-dispatch path can run this system.
func (s *System) machineBacked() bool {
	if len(s.procs) == 0 {
		return false
	}
	for _, p := range s.procs {
		if p.machine == nil {
			return false
		}
	}
	return true
}

// Snapshotable reports whether the system supports in-place
// backtracking: every process is machine-backed and every object is
// Restorable (wrappers additionally passing RestoreProber). Explorers
// use this to choose between the in-place DFS and per-probe rebuilds.
func (s *System) Snapshotable() bool {
	if !s.machineBacked() {
		return false
	}
	for _, o := range s.objects {
		if _, ok := o.(Restorable); !ok {
			return false
		}
		if p, ok := o.(RestoreProber); ok && !p.CanRestore() {
			return false
		}
	}
	return true
}

// MachineExec is a live direct-dispatch execution of a machine-backed
// System. Unlike Run it is re-enterable: explorers alternate
// Snapshot/Restore with Run episodes to walk an execution tree without
// ever rebuilding the system. Obtain one with StartMachines.
type MachineExec struct {
	sys   *System
	cfg   Config
	ready []ProcID
}

// StartMachines prepares a machine-backed System for direct-dispatch
// execution under cfg and returns its executor. Like Run it consumes
// the System's single run; unlike Run it does not execute anything yet.
// Config.Scratch may be swapped later with SetScratch.
func (s *System) StartMachines(cfg Config) (*MachineExec, error) {
	if s.ran {
		return nil, errors.New("sim: system already ran")
	}
	s.ran = true
	if len(s.procs) == 0 {
		return nil, errors.New("sim: no processes")
	}
	for _, p := range s.procs {
		if p.machine == nil {
			return nil, fmt.Errorf("sim: process %d has no machine", p.id)
		}
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = RoundRobin()
	}
	if cfg.MaxTotalSteps == 0 {
		cfg.MaxTotalSteps = DefaultMaxTotalSteps
	}
	if cfg.DisableTrace {
		s.trace = nil
	}
	s.fingerprint = cfg.Fingerprint
	s.verifyFP = cfg.VerifyFingerprints
	s.scratch = cfg.Scratch
	s.objFaults = cfg.ObjectFaults
	if cfg.Canon != nil && cfg.Fingerprint {
		s.canon = cfg.Canon
		if np := cfg.Canon.NumPerms() - 1; np > 0 {
			var buf []uint64
			if cfg.Scratch != nil {
				buf = cfg.Scratch.permBuf(np * len(s.procs))
			} else {
				buf = make([]uint64, np*len(s.procs))
			}
			for i := range buf {
				buf[i] = fnvOffset64
			}
			for i, p := range s.procs {
				p.permHash = buf[i*np : (i+1)*np : (i+1)*np]
			}
		}
	}
	m := &MachineExec{sys: s, cfg: cfg, ready: make([]ProcID, 0, len(s.procs))}
	// Arrival: every machine has a first pending op (see Machine), so
	// all processes start ready, footprint published.
	for _, p := range s.procs {
		p.pendingObj = p.machine.Pending().Obj.Name()
		m.ready = append(m.ready, p.id)
	}
	return m, nil
}

// SetScratch swaps the result/ready scratch for subsequent episodes
// (explorers retain a Result occasionally and hand the executor a fresh
// Scratch in its place).
func (m *MachineExec) SetScratch(sc *Scratch) { m.cfg.Scratch = sc }

// System returns the underlying system (for StateHash/PendingObject
// observation at decision points).
func (m *MachineExec) System() *System { return m.sys }

// Run executes from the current state until the run ends (all
// processes done, scheduler halt, or step budget) and returns the
// Result, exactly as System.Run would from that state. After a Restore
// it can be called again for the next episode. Run is Resume followed
// by BuildResult.
func (m *MachineExec) Run() (*Result, error) {
	halted, err := m.Resume()
	if err != nil {
		return nil, err
	}
	return m.BuildResult(halted), nil
}

// Resume is the direct-dispatch twin of System.Run's scheduling loop:
// same decision order (total-step bound, fault plan, scheduler, per-
// process bound), same step semantics, no goroutines or channels. It
// executes from the current state until the run ends and reports
// whether it ended by a halt (scheduler or step budget). It builds no
// Result: a caller that discards the episode and Restores next — an
// explorer whose probe ended in a table hit — skips BuildResult, and
// with it the halt of the ready processes, entirely.
func (m *MachineExec) Resume() (halted bool, err error) {
	s, cfg := m.sys, &m.cfg
	for {
		if s.steps >= cfg.MaxTotalSteps {
			return true, nil
		}
		if cfg.Faults != nil {
			crashNow := cfg.Faults.CrashNow(m.ready, s.steps)
			for _, id := range crashNow {
				var ok bool
				if m.ready, ok = removeReady(m.ready, id); ok {
					s.machineCrash(id, ErrCrashed)
				}
			}
		}
		if len(m.ready) == 0 {
			return false, nil
		}
		next := cfg.Scheduler.Next(m.ready, s.steps)
		if next == Halt {
			return true, nil
		}
		var inSet bool
		if m.ready, inSet = removeReady(m.ready, next); !inSet {
			return false, fmt.Errorf("sim: scheduler chose process %d, not in ready set %v", next, m.ready)
		}
		p := s.procs[next]
		if cfg.MaxStepsPerProc > 0 && p.steps >= cfg.MaxStepsPerProc {
			s.machineCrash(next, ErrStepLimit)
			continue
		}
		fin := m.step(p)
		s.steps++
		if cfg.OnStep != nil {
			cfg.OnStep(s.steps)
		}
		if !fin {
			m.ready = insertReady(m.ready, p.id)
		}
	}
}

// BuildResult builds the Result of the episode Resume just ended,
// exactly as System.Run would: on a halt every still-ready process is
// stopped with ErrHalted first. Everything it touches (process status,
// errors, the ready set, the fingerprint cache) is rewound by the next
// Restore.
func (m *MachineExec) BuildResult(halted bool) *Result {
	return m.sys.buildResult(&m.cfg, m.ready, halted, func(id ProcID) {
		m.sys.machineCrash(id, ErrHalted)
	})
}

// step executes one granted shared-memory step of p, mirroring
// Env.apply: same argument staging, fault-plan consultation, error
// wrapping, trace recording and observation folding. It reports whether
// the process finished (decided, errored, or was killed by an operation
// error).
func (m *MachineExec) step(p *proc) (finished bool) {
	s := m.sys
	op := p.machine.Pending()
	p.steps++
	idx := s.steps
	p.lastStep = idx
	var args []Value
	if op.NArgs > 0 {
		p.argbuf[0] = op.Args[0]
		if op.NArgs > 1 {
			p.argbuf[1] = op.Args[1]
		}
		args = p.argbuf[:op.NArgs]
	}
	obj := op.Obj
	var v Value
	var err error
	mode := FaultNone
	if s.objFaults != nil {
		mode = s.objFaults.FaultOp(idx)
	}
	if mode != FaultNone {
		if fo, ok := obj.(Faultable); ok {
			v, err = fo.ApplyFault(p.id, op.Op, args, mode)
		} else {
			v, err = obj.Apply(p.id, op.Op, args)
		}
	} else {
		v, err = obj.Apply(p.id, op.Op, args)
	}
	if err != nil {
		err = fmt.Errorf("proc %d: %s.%s: %w", p.id, obj.Name(), op.Op, err)
		if s.trace != nil {
			s.trace.record(idx, p.id, obj.Name(), op.Op, copyArgs(args), err)
		}
		p.done = true
		p.err = err
		if s.fingerprint {
			s.fpTouchObj(obj.Name())
			s.fpTouchProc(int(p.id))
		}
		return true
	}
	if s.trace != nil {
		s.trace.record(idx, p.id, obj.Name(), op.Op, copyArgs(args), v)
	}
	if s.fingerprint {
		p.foldOp(v)
		if s.canon != nil {
			s.canon.foldOpPerms(p, v)
		}
		if s.fp.init {
			s.fpTouchObj(obj.Name())
			s.fpTouchProc(int(p.id))
		}
	}
	done, dec, ferr := p.machine.Finish(v)
	if done {
		p.done = true
		p.value, p.err = dec, ferr
		return true
	}
	p.pendingObj = p.machine.Pending().Obj.Name()
	return false
}

// copyArgs detaches trace-retained arguments from the per-process
// staging buffer (the machine path always stages there).
func copyArgs(args []Value) []Value {
	if len(args) == 0 {
		return args
	}
	return append([]Value(nil), args...)
}

// machineCrash marks a machine-backed process dead with the given
// error, producing the same proc state the goroutine runner's
// crash/crashWith teardown leaves behind.
func (s *System) machineCrash(id ProcID, err error) {
	p := s.procs[id]
	p.done = true
	p.err = err
	p.crashed = err == ErrCrashed
	if s.fingerprint {
		s.fpTouchProc(int(id))
	}
}

// Snapshot appends the full mutable state of the execution — global
// step count, every process (counters, status, observation hashes,
// decision, machine-local state) and every object — to the arena.
// It must be taken at a decision point (between steps). The caller
// records sn.Len() beforehand to address the snapshot later.
func (m *MachineExec) Snapshot(sn *Snap) {
	s := m.sys
	sn.Int(s.steps)
	for _, p := range s.procs {
		sn.Int(p.steps)
		sn.Bool(p.done)
		sn.Bool(p.crashed)
		sn.Uint64(p.opHash)
		for _, h := range p.permHash {
			sn.Uint64(h)
		}
		sn.Value(p.value)
		sn.Value(p.err)
		p.machine.Save(sn)
	}
	for _, name := range s.sortedNames() {
		s.objects[name].(Restorable).SaveState(sn)
	}
	if s.fingerprint {
		s.fpSnapshot(sn)
	}
}

// Restore rewinds the execution to a snapshot taken by Snapshot,
// rebuilding the ready set and pending footprints. The snapshot stays
// valid (reads do not consume the arena), so one snapshot can be
// restored many times — the core of in-place backtracking. r is
// advanced past the snapshot. It is passed through the Machine and
// Restorable interfaces, so a reader in a local variable would move to
// the heap: callers that restore per probe keep it in a long-lived
// field, and a restore then allocates nothing.
func (m *MachineExec) Restore(r *SnapReader) {
	s := m.sys
	s.steps = r.Int()
	m.ready = m.ready[:0]
	for _, p := range s.procs {
		p.steps = r.Int()
		p.done = r.Bool()
		p.crashed = r.Bool()
		p.opHash = r.Uint64()
		for i := range p.permHash {
			p.permHash[i] = r.Uint64()
		}
		p.value = r.Value()
		if e := r.Value(); e != nil {
			p.err = e.(error)
		} else {
			p.err = nil
		}
		p.machine.Restore(r)
		if !p.done {
			m.ready = append(m.ready, p.id)
			p.pendingObj = p.machine.Pending().Obj.Name()
		}
	}
	for _, name := range s.sortedNames() {
		s.objects[name].(Restorable).RestoreState(r)
	}
	if s.fingerprint {
		s.fpRestore(r)
	}
}
