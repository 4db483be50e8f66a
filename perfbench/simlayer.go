package main

import (
	"fmt"
	"time"

	"repro/internal/explore"
	"repro/internal/sim"
)

// explore's symmetry audit (resolveSymmetry in internal/explore) runs
// AuditSymmetry with these rounds and steps; the layer timing mirrors
// them so sim.audit_s prices what every symmetry census pays.
const (
	auditRounds = 3
	auditSteps  = 64
)

// simBudget is how long each step-cost mode runs; simBatch is how many
// systems are built ahead of a timed batch, keeping the builder out of
// the measured interval.
const (
	simBudget = 250 * time.Millisecond
	simBatch  = 256
)

// simLayer is the simulator measured on one workload's builder.
type simLayer struct {
	stepNs, fpStepNs, canonStepNs float64
	canonicalizer, audit          time.Duration
}

type fpMode int

const (
	fpOff fpMode = iota
	fpPlain
	fpCanon
)

// measureSim times System.Run on b under sim.Random(seed) in the three
// fingerprint modes, reading the fingerprint at every decision point
// the way a pruned census does, and times the symmetry set-up that a
// symmetric census pays before its first probe.
func measureSim(b explore.Builder, seed int64) (simLayer, error) {
	var out simLayer
	var err error
	if out.stepNs, err = stepCost(b, seed, fpOff, nil); err != nil {
		return out, err
	}
	if out.fpStepNs, err = stepCost(b, seed, fpPlain, nil); err != nil {
		return out, err
	}
	probe := b()
	spec := probe.SymmetrySpec()
	if spec == nil {
		return out, fmt.Errorf("sim layer: builder declares no symmetry")
	}
	t := time.Now()
	canon, err := sim.NewCanonicalizer(probe, spec)
	out.canonicalizer = time.Since(t)
	if err != nil {
		return out, err
	}
	t = time.Now()
	err = sim.AuditSymmetry(b, canon, auditRounds, auditSteps)
	out.audit = time.Since(t)
	if err != nil {
		return out, err
	}
	out.canonStepNs, err = stepCost(b, seed, fpCanon, canon)
	return out, err
}

// stepCost returns the mean wall nanoseconds per granted step.
func stepCost(b explore.Builder, seed int64, mode fpMode, canon *sim.Canonicalizer) (float64, error) {
	sc := sim.NewScratch()
	rnd := sim.Random(seed)
	var sys *sim.System
	sched := sim.SchedulerFunc(func(ready []sim.ProcID, step int) sim.ProcID {
		switch mode {
		case fpPlain:
			sys.StateHash()
		case fpCanon:
			sys.StateHashCanon()
		}
		return rnd.Next(ready, step)
	})
	cfg := sim.Config{Scheduler: sched, Fingerprint: mode != fpOff, Canon: canon, DisableTrace: true, Scratch: sc}
	batch := make([]*sim.System, simBatch)
	var spent time.Duration
	steps := 0
	for spent < simBudget {
		for i := range batch {
			batch[i] = b()
		}
		t := time.Now()
		for _, s := range batch {
			sys = s
			res, err := s.Run(cfg)
			if err != nil {
				return 0, err
			}
			steps += res.TotalSteps
		}
		spent += time.Since(t)
	}
	if steps == 0 {
		return 0, fmt.Errorf("sim layer: no steps executed")
	}
	return float64(spent.Nanoseconds()) / float64(steps), nil
}
