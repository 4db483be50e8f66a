package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/censusd"
)

// spreadNote describes a sample: its size and quartiles.
func spreadNote(xs []float64, what string) string {
	if q1, _, q3, ok := quartiles(xs); ok {
		return fmt.Sprintf("median of %d %s; q1 %.4g, q3 %.4g", len(xs), what, q1, q3)
	}
	return fmt.Sprintf("median of %d %s", len(xs), what)
}

// medianOf is the median of f over the traced censuses.
func medianOf(layers []*censusLayers, f func(*censusLayers) float64) float64 {
	xs := make([]float64, len(layers))
	for i, l := range layers {
		xs[i] = f(l)
	}
	return median(xs)
}

// putCensusLayers reports the explore, consensus, sim-builder, output
// and censusd request-layer metrics of the traced censuses, plus the
// self time of every layer per census.
func putCensusLayers(o runOpts, rep *report, layers []*censusLayers) error {
	spans := o.tracer.spans
	self := selfTimes(spans)
	traces := make(map[int]bool, len(layers))
	byTrace := make(map[int]*censusLayers, len(layers))
	for _, l := range layers {
		traces[l.trace] = true
		byTrace[l.trace] = l
	}
	for _, s := range spans {
		l, ok := byTrace[s.Trace]
		if !ok {
			continue
		}
		switch {
		case s.Name == "explore.run":
			l.exploreSelf += self[s.ID]
		case s.layer() == "censusd":
			l.censusSelf += self[s.ID]
		}
	}
	n := fmt.Sprintf("median of %d traced censuses", len(layers))
	rep.put("sim.builds", "count", medianOf(layers, func(l *censusLayers) float64 { return float64(l.builds) }), "builder calls per census")
	rep.put("sim.build_us", "us", medianOf(layers, func(l *censusLayers) float64 { return float64(l.buildTime.Nanoseconds()) / 1e3 }), "builder time per census")
	rep.put("consensus.check_calls", "count", medianOf(layers, func(l *censusLayers) float64 { return float64(l.checks) }), "per census")
	rep.put("consensus.check_ns", "ns", medianOf(layers, func(l *censusLayers) float64 {
		if l.checks == 0 {
			return 0
		}
		return float64(l.checkTime.Nanoseconds()) / float64(l.checks)
	}), "per call")
	rep.put("explore.decision_ns", "ns", medianOf(layers, func(l *censusLayers) float64 { return l.decisionNs }),
		fmt.Sprintf("per DecisionFingerprint call, one result in %d sampled", decisionSampleEvery))
	rep.put("explore.run_s", "s", medianOf(layers, func(l *censusLayers) float64 { return l.exploreRun.Seconds() }), n)
	rep.put("explore.self_s", "s", medianOf(layers, func(l *censusLayers) float64 { return l.exploreSelf.Seconds() }), "explore.run minus sim.build and consensus.check")
	count := func(name string, f func(l *censusLayers) uint64) {
		rep.put(name, "count", medianOf(layers, func(l *censusLayers) float64 { return float64(f(l)) }), "per census")
	}
	count("explore.probes", func(l *censusLayers) uint64 { return l.prune.Probes })
	count("explore.hits", func(l *censusLayers) uint64 { return l.prune.Hits })
	count("explore.misses", func(l *censusLayers) uint64 { return l.prune.Misses })
	count("explore.stores", func(l *censusLayers) uint64 { return l.prune.Stores })
	count("explore.evictions", func(l *censusLayers) uint64 { return l.prune.Evictions })
	rep.put("explore.hit_ratio", "ratio", medianOf(layers, func(l *censusLayers) float64 {
		if l.prune.Hits+l.prune.Misses == 0 {
			return 0
		}
		return float64(l.prune.Hits) / float64(l.prune.Hits+l.prune.Misses)
	}), "hits / (hits + misses); 0 without a table")
	count("explore.symmetry_hits", func(l *censusLayers) uint64 { return l.prune.SymmetryHits })
	count("explore.steals", func(l *censusLayers) uint64 { return l.prune.Steals })
	count("explore.donations", func(l *censusLayers) uint64 { return l.prune.Donations })
	count("explore.orbit_skips", func(l *censusLayers) uint64 { return l.prune.OrbitSkips })
	rep.put("explore.wasted_misses", "count", medianOf(layers, func(l *censusLayers) float64 {
		return float64(l.prune.Misses) - float64(l.prune.Stores)
	}), "misses - stores per census")
	rep.put("explore.parallelism", "ratio", medianOf(layers, func(l *censusLayers) float64 { return l.parallelism }), "process CPU / wall during explore.Run")
	rep.put("explore.mallocs", "count", medianOf(layers, func(l *censusLayers) float64 { return float64(l.mallocs) }), "heap objects allocated during explore.Run")
	rep.put("explore.gc_cpu_s", "s", medianOf(layers, func(l *censusLayers) float64 { return l.gcCPU }), "GC CPU during explore.Run")
	rep.put("output.encode_s", "s", medianOf(layers, func(l *censusLayers) float64 { return l.encode.Seconds() }), n)
	rep.put("censusd.self_s", "s", medianOf(layers, func(l *censusLayers) float64 { return l.censusSelf.Seconds() }), "Normalize + Build + Options + ResultFrom")

	total := layerSelf(spans, traces)
	var names []string
	for k := range total {
		names = append(names, k)
	}
	sort.Strings(names)
	var parts []string
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s=%.6gs", k, total[k].Seconds()/float64(len(layers))))
	}
	rep.say("self time per layer, mean per traced census: %s", strings.Join(parts, " "))
	return nil
}

// putSimLayer times the simulator on the request's builder.
func putSimLayer(o runOpts, rep *report, req censusd.Request) error {
	if err := req.Normalize(); err != nil {
		return err
	}
	b, _, err := req.Build()
	if err != nil {
		return err
	}
	sl, err := measureSim(b, o.seed)
	if err != nil {
		return err
	}
	note := fmt.Sprintf("System.Run under sim.Random(%d), %v per mode", o.seed, simBudget)
	rep.put("sim.step_ns", "ns", sl.stepNs, note+", fingerprint off")
	rep.put("sim.fp_step_ns", "ns", sl.fpStepNs, "StateHash read at each decision")
	rep.put("sim.canon_step_ns", "ns", sl.canonStepNs, "StateHashCanon read at each decision")
	rep.put("sim.canonicalizer_s", "s", sl.canonicalizer.Seconds(), "sim.NewCanonicalizer")
	rep.put("sim.audit_s", "s", sl.audit.Seconds(), fmt.Sprintf("sim.AuditSymmetry, %d rounds x %d steps", auditRounds, auditSteps))
	return nil
}
