package main

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/censusd"
	"repro/internal/explore"
	"repro/internal/sim"
)

// censusOut is one census as cmd/explore -json would emit it, plus what
// the benchmark measured around it.
type censusOut struct {
	res    *censusd.Result
	wall   time.Duration // Normalize to encoded JSON
	layers *censusLayers // nil unless traced
}

// censusLayers is what one traced census measured at its layer
// boundaries.
type censusLayers struct {
	trace                   int
	exploreRun, encode      time.Duration
	builds, checks          int64
	buildTime, checkTime    time.Duration
	decisionNs              float64 // mean DecisionFingerprint time on sampled results
	mallocs, allocBytes     uint64  // during explore.Run
	gcCPU                   float64 // GC CPU seconds during explore.Run
	parallelism             float64 // process CPU ÷ wall during explore.Run
	prune                   explore.PruneStats
	exploreSelf, censusSelf time.Duration
}

// decisionSampleEvery and decisionSampleReps shape the sampling of
// DecisionFingerprint inside the check callback: the first result, and
// one in decisionSampleEvery after it, is fingerprinted
// decisionSampleReps times, so the timed interval is well above the
// clock's resolution.
const (
	decisionSampleEvery = 64
	decisionSampleReps  = 8
)

// runCensus performs one census the way cmd/explore does — Normalize,
// Build, Options, explore.Run, ResultFrom, JSON encode — and times it.
// With tr non-nil it records a span around each of those calls, wraps
// the builder and the check to aggregate their calls, and reads the Go
// runtime's counters around explore.Run.
func runCensus(in censusd.Request, tr *tracer) (*censusOut, error) {
	req := in
	if in.Crashes != nil {
		c := *in.Crashes
		req.Crashes = &c
	}
	if tr == nil {
		t0 := time.Now()
		if err := req.Normalize(); err != nil {
			return nil, err
		}
		b, props, err := req.Build()
		if err != nil {
			return nil, err
		}
		opts := req.Options()
		c := explore.Run(b, opts, req.Check(props))
		res := censusd.ResultFrom(req.Protocol, *req.Crashes, req.ObjFaults, c, nil)
		if err := encode(res); err != nil {
			return nil, err
		}
		return &censusOut{res: res, wall: time.Since(t0)}, nil
	}

	trace := tr.newTrace()
	root := tr.begin(trace, 0, "census")
	sp := tr.begin(trace, root.id(), "censusd.normalize")
	err := req.Normalize()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin(trace, root.id(), "censusd.build")
	b, props, err := req.Build()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin(trace, root.id(), "censusd.options")
	opts := req.Options()
	check := req.Check(props)
	sp.end()

	var builds, checks, decisions counter
	tb := func() *sim.System {
		t := time.Now()
		s := b()
		builds.add(time.Since(t))
		return s
	}
	tc := func(r *sim.Result) error {
		t := time.Now()
		err := check(r)
		checks.add(time.Since(t))
		if checks.calls.Load()%decisionSampleEvery == 1 {
			t = time.Now()
			for i := 0; i < decisionSampleReps; i++ {
				explore.DecisionFingerprint(r)
			}
			decisions.add(time.Since(t))
		}
		return err
	}

	before := readRuntime()
	cpu0 := processCPU()
	er := tr.begin(trace, root.id(), "explore.run")
	c := explore.Run(tb, opts, tc)
	runWall := er.end()
	cpu1 := processCPU()
	after := readRuntime()
	tr.aggregate(trace, er.id(), "sim.build", builds.calls.Load(), builds.total())
	tr.aggregate(trace, er.id(), "consensus.check", checks.calls.Load(), checks.total())

	sp = tr.begin(trace, root.id(), "censusd.result")
	res := censusd.ResultFrom(req.Protocol, *req.Crashes, req.ObjFaults, c, nil)
	sp.end()
	sp = tr.begin(trace, root.id(), "output.encode")
	err = encode(res)
	encWall := sp.end()
	if err != nil {
		return nil, err
	}
	wall := root.end()

	l := &censusLayers{
		trace:       trace,
		exploreRun:  runWall,
		encode:      encWall,
		builds:      builds.calls.Load(),
		checks:      checks.calls.Load(),
		buildTime:   builds.total(),
		checkTime:   checks.total(),
		mallocs:     after.mallocs - before.mallocs,
		allocBytes:  after.allocBytes - before.allocBytes,
		gcCPU:       after.gcCPU - before.gcCPU,
		parallelism: (cpu1 - cpu0).Seconds() / runWall.Seconds(),
	}
	if n := decisions.calls.Load(); n > 0 {
		l.decisionNs = float64(decisions.total().Nanoseconds()) / float64(n*decisionSampleReps)
	}
	if c.Prune != nil {
		l.prune = *c.Prune
	}
	return &censusOut{res: res, wall: wall, layers: l}, nil
}

// encode renders a result exactly as cmd/explore -json does; the
// bytes are dropped, the work is what a census pays.
func encode(res *censusd.Result) error {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// runtimeCounters are cumulative Go runtime counters.
type runtimeCounters struct {
	mallocs, allocBytes uint64
	gcCPU               float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// readRuntime reads the allocation and GC counters. The caller must not
// read concurrently (the sample slice is shared).
func readRuntime() runtimeCounters {
	metrics.Read(runtimeSamples)
	return runtimeCounters{
		mallocs:    runtimeSamples[0].Value.Uint64(),
		allocBytes: runtimeSamples[1].Value.Uint64(),
		gcCPU:      runtimeSamples[2].Value.Float64(),
	}
}

// processCPU is the user plus system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
