package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/censusd"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 101

// censusWorkload runs one census workload: back-to-back censuses for
// the window, each checked against the recorded answer. A traced run
// alternates traced and untraced censuses, so the tracing overhead is
// measured under the same conditions as the layers.
func censusWorkload(w *workloadSpec, o runOpts, rep *report) error {
	if w.Request == nil || w.Golden == nil {
		return fmt.Errorf("workload %s has no request or no golden record", w.Name)
	}
	var req censusd.Request
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		r, err := prepareCensus(w.Name)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		req = r
	}
	sequential := req.Workers <= 1

	var walls, tracedWalls, allocs []float64
	var layers []*censusLayers
	var pruneFirst pruneCounts
	var exactFirst *tracedCounts
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		traced := o.trace && i%2 == 0
		var tr *tracer
		if traced {
			tr = o.tracer
		}
		// Every census starts from a collected heap, as a cmd/explore
		// census starts in a fresh process. A collection also flushes
		// the runtime's per-P allocation caches into its counters, so a
		// traced census is bracketed by two for an exact count. The
		// collections are untimed.
		runtime.GC()
		before := readRuntime()
		out, err := runCensus(req, tr)
		if traced {
			runtime.GC()
		}
		after := readRuntime()
		if err != nil {
			rep.op(true)
			rep.problem("census %d: %v", i+1, err)
			continue
		}
		var bad []string
		if err := checkGolden(*w.Golden, out.res); err != nil {
			bad = append(bad, err.Error())
		}
		pc := pruneCountsOf(out.res.Prune)
		if i == 0 {
			pruneFirst = pc
		} else if sequential && pc != pruneFirst {
			bad = append(bad, fmt.Sprintf("table counts did not repeat: %+v, first census %+v", pc, pruneFirst))
		}
		if traced {
			l := out.layers
			e := tracedCounts{l.builds, l.checks, after.mallocs - before.mallocs, after.allocBytes - before.allocBytes}
			if exactFirst == nil {
				exactFirst = &e
			} else if sequential && !e.repeats(*exactFirst) {
				bad = append(bad, fmt.Sprintf("traced counts did not repeat: %+v, first traced census %+v", e, *exactFirst))
			}
			layers = append(layers, l)
			tracedWalls = append(tracedWalls, out.wall.Seconds())
		} else {
			walls = append(walls, out.wall.Seconds())
			allocs = append(allocs, float64(after.allocBytes-before.allocBytes)/1e6)
		}
		rep.op(len(bad) > 0)
		for _, b := range bad {
			rep.problem("census %d: %s", i+1, b)
		}
	}
	loop := time.Since(start)

	peak, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	rep.say("workload %s: %d censuses in %.2fs (%d traced), request %s", w.Name, rep.attempted, loop.Seconds(), len(layers), requestJSON(req))
	if !o.trace {
		rep.put("census_s", "s", median(walls), spreadNote(walls, "censuses"))
		rep.put("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
		rep.put("alloc_mb", "MB", median(allocs), "per census")
		rep.put("peak_rss_mb", "MB", peak, "benchmark process")
		rep.put("jobs_per_s", "1/s", float64(len(walls))/loop.Seconds(), "censuses completed per second")
		rep.put("fail_frac", "ratio", float64(rep.failed)/float64(rep.attempted), fmt.Sprintf("%d of %d", rep.failed, rep.attempted))
		rep.say("metric job_p50_s, job_tail_s, dedup_p50_s: daemon-mix only")
		return nil
	}
	return reportCensusLayers(o, rep, req, layers, walls, tracedWalls)
}

// allocTolerance bounds how far a census's settled allocation may
// drift between identical workers=1 censuses. It cannot repeat exactly:
// each collection empties the runtime's sync.Pools and maps are seeded
// at random, so a few hundred objects (about 0.01%) move from census to
// census.
const allocTolerance = 0.001

// tracedCounts are the counts a workers=1 census must repeat: builder
// and check calls exactly, allocation within allocTolerance.
type tracedCounts struct {
	builds, checks      int64
	mallocs, allocBytes uint64
}

func (a tracedCounts) repeats(b tracedCounts) bool {
	near := func(x, y uint64) bool {
		return math.Abs(float64(x)-float64(y)) <= allocTolerance*float64(max(x, y))
	}
	return a.builds == b.builds && a.checks == b.checks && near(a.mallocs, b.mallocs) && near(a.allocBytes, b.allocBytes)
}

// prepareCensus is a census workload's set-up: decode the workload
// file, take the workload's request, and check that it builds.
func prepareCensus(name string) (censusd.Request, error) {
	spec, err := loadSpec()
	if err != nil {
		return censusd.Request{}, err
	}
	w, err := spec.workload(name)
	if err != nil {
		return censusd.Request{}, err
	}
	req := *w.Request
	probe := req
	if err := probe.Normalize(); err != nil {
		return req, err
	}
	b, _, err := probe.Build()
	if err != nil {
		return req, err
	}
	if b().NumProcs() == 0 {
		return req, fmt.Errorf("workload %s builds an empty system", name)
	}
	return req, nil
}

// reportCensusLayers turns the traced censuses into per-layer metrics:
// medians over the traced censuses for times and counts, the simulator
// timed on the workload's own builder, the self time of every layer,
// and the tracing overhead against the untraced censuses of the run.
func reportCensusLayers(o runOpts, rep *report, req censusd.Request, layers []*censusLayers, walls, tracedWalls []float64) error {
	if len(layers) == 0 {
		return fmt.Errorf("no traced census completed")
	}
	if err := putCensusLayers(o, rep, layers); err != nil {
		return err
	}
	if err := putSimLayer(o, rep, req); err != nil {
		return err
	}
	overhead := median(tracedWalls) - median(walls)
	note := fmt.Sprintf("traced %.4gs over %d censuses vs untraced %.4gs over %d", median(tracedWalls), len(tracedWalls), median(walls), len(walls))
	if len(walls) == 0 {
		overhead, note = 0, "window too short for an untraced census; raise -seconds"
	}
	rep.put("trace.overhead_s", "s", overhead, note)
	return nil
}

func requestJSON(req censusd.Request) string {
	b, _ := json.Marshal(req)
	return string(b)
}
