// Command perfbench is the census stack's benchmark. One invocation runs
// one workload for a fixed time, checks every census it produced, and
// prints its metrics by name with their units; the last line of stdout
// is a JSON object with the keys correct, attempted, failed and
// metrics. An untraced run (-trace 0) reports the end-to-end metrics;
// a traced run (-trace 1) records spans around each call into a layer
// and reports the per-layer metrics, the self time of every layer and
// the tracing overhead. perfbench/run.sh builds and runs it; see
// perfbench/README.md and perfbench/workloads.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer are the metrics of the result line, in the
// order BENCHMARK.json lists them (a test keeps the two in step).
var endToEnd = []string{"census_s", "setup_s", "peak_rss_mb", "jobs_per_s"}

var perLayer = []string{
	"sim.step_ns", "sim.fp_step_ns", "sim.canon_step_ns",
	"sim.canonicalizer_s", "sim.audit_s", "sim.builds", "sim.build_us",
	"consensus.check_calls", "consensus.check_ns", "explore.decision_ns",
	"explore.run_s", "explore.self_s",
	"explore.probes", "explore.hits", "explore.misses", "explore.stores",
	"explore.evictions", "explore.hit_ratio",
	"explore.symmetry_hits", "explore.steals", "explore.donations", "explore.orbit_skips",
	"explore.wasted_misses", "explore.parallelism", "explore.mallocs", "explore.gc_cpu_s",
	"output.encode_s", "censusd.self_s", "trace.overhead_s",
}

type runOpts struct {
	seed       int64
	seconds    time.Duration
	trace      bool
	censusdBin string
	workdir    string
	tracer     *tracer
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	censusdBin := flag.String("censusd", "", "censusd binary (daemon-mix)")
	workdir := flag.String("workdir", ".bench_build", "directory for traces and daemon job stores")
	flag.Parse()

	rep, err := runWorkload(*workload, *seed, *seconds, *trace == 1, *censusdBin, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	line, err := rep.resultLine(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

func runWorkload(name string, seed int64, seconds float64, trace bool, censusdBin, workdir string) (*report, error) {
	if seconds <= 0 || math.IsNaN(seconds) {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	w, err := spec.workload(name)
	if err != nil {
		return nil, err
	}
	// run.sh starts the benchmark from the checkout's root.
	src, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	host := newHostInfo(src, name, seed, trace)
	if host.CPUs != host.NumCPU {
		return nil, fmt.Errorf("GOMAXPROCS=%d but the host reports %d CPUs; results are only recorded at the host's CPU count", host.CPUs, host.NumCPU)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	o := runOpts{
		seed:       seed,
		seconds:    time.Duration(seconds * float64(time.Second)),
		trace:      trace,
		censusdBin: censusdBin,
		workdir:    workdir,
	}
	if trace {
		o.tracer = newTracer()
	}
	rep := &report{values: map[string]metricValue{}}
	hb, _ := json.Marshal(host)
	rep.lines = append(rep.lines, "host "+string(hb))
	if w.Daemon != nil {
		err = daemonWorkload(w, o, rep)
	} else {
		err = censusWorkload(w, o, rep)
	}
	if err != nil {
		return nil, err
	}
	if trace {
		dir := filepath.Join(workdir, "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := o.tracer.write(path, host); err != nil {
			return nil, err
		}
		rep.lines = append(rep.lines, "trace written to "+path)
	}
	return rep, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, its human-readable lines and every
// correctness problem found.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]metricValue
	lines             []string
}

// put records a metric and prints it; note, if not empty, follows it.
func (r *report) put(name, unit string, v float64, note string) {
	r.values[name] = metricValue{Value: v, Unit: unit}
	line := fmt.Sprintf("metric %-24s %.6g %s", name, v, unit)
	if note != "" {
		line += "  (" + note + ")"
	}
	r.lines = append(r.lines, line)
}

// say prints a line that is not a metric of the result line.
func (r *report) say(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// problem records a correctness failure.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed.
func (r *report) op(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

func (r *report) resultLine(traced bool) (string, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	ms := make(map[string]metricValue, len(names))
	var missing []string
	for _, n := range names {
		v, ok := r.values[n]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, n)
			continue
		}
		ms[n] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, ms})
	return string(b), err
}
