package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/censusd"
)

// daemonSetupReps is how many times a daemon-mix run starts censusd;
// setup_s is the median, and the last instance serves the workload.
const daemonSetupReps = 5

// freshMaxRuns is the maxruns base of fresh jobs: far above every
// shape's census total, so no census is cut, while the per-job offset
// gives each fresh job an exploration identity of its own.
const freshMaxRuns = 1_000_000_000_000_000_000

// daemonProc is a running censusd subprocess.
type daemonProc struct {
	cmd     *exec.Cmd
	addr    string
	log     *os.File
	drained chan struct{} // closed when censusd's stdout reaches EOF
}

// startCensusd starts censusd on a free port with its store in dir and
// waits until /healthz answers.
func startCensusd(bin, dir string, slots int, client *http.Client) (*daemonProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir, "-workers", strconv.Itoa(slots))
	cmd.Stderr = logf
	// censusd must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start censusd: %w", err)
	}
	p := &daemonProc{cmd: cmd, log: logf, drained: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(p.drained)
	}()
	const prefix = "censusd: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		p.kill()
		return nil, fmt.Errorf("censusd did not announce its address (got %q, %v); see %s", line, err, logf.Name())
	}
	p.addr = "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(p.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("censusd /healthz did not answer within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains censusd with SIGTERM (SIGKILL after 20s) and waits for it.
func (p *daemonProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	err := p.cmd.Wait()
	p.log.Close()
	return err
}

func (p *daemonProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.drained
	_ = p.cmd.Wait()
	p.log.Close()
}

// plan is one client's seeded submission sequence. It depends only on
// the seed and the client's index, never on timing: a repeat always
// names an identity this same client already saw finish. Each block of
// repeatEvery submissions holds exactly one repeat at a seeded place,
// and fresh jobs deal the shapes from a seeded shuffled deck, so every
// seed submits the same mix in a different order.
type plan struct {
	rng         *rand.Rand
	client, n   int
	shapes      []censusd.Request
	repeatEvery int
	repeatAt    int   // index within the current block of the repeat
	deck        []int // shape indices still to deal
	fresh       []censusd.Request
}

func newPlans(d *daemonSpec, seed int64) []*plan {
	out := make([]*plan, d.Clients)
	for c := range out {
		out[c] = &plan{rng: rand.New(rand.NewSource(seed*1000 + int64(c))), client: c, shapes: d.Shapes, repeatEvery: d.RepeatEvery}
	}
	return out
}

// next returns the client's next submission and whether it repeats an
// earlier one.
func (p *plan) next() (censusd.Request, bool) {
	pos := p.n % p.repeatEvery
	if pos == 0 {
		// The first block's repeat needs an earlier fresh job to repeat.
		lo := 0
		if p.n == 0 {
			lo = 1
		}
		p.repeatAt = lo + p.rng.Intn(p.repeatEvery-lo)
	}
	p.n++
	if pos == p.repeatAt {
		return p.fresh[p.rng.Intn(len(p.fresh))], true
	}
	if len(p.deck) == 0 {
		p.deck = p.rng.Perm(len(p.shapes))
	}
	r := p.shapes[p.deck[0]]
	p.deck = p.deck[1:]
	if r.Crashes != nil {
		c := *r.Crashes
		r.Crashes = &c
	}
	r.FaultModes = append([]string(nil), r.FaultModes...)
	r.MaxRuns = freshMaxRuns + p.client*1_000_000_000 + p.n
	p.fresh = append(p.fresh, r)
	return r, false
}

// op is one submission as the client saw it.
type op struct {
	req       censusd.Request
	repeat    bool
	code      int
	job       *censusd.Job
	err       error
	submitRTT time.Duration
	polls     int
	submitted time.Time // when the POST was sent
	observed  time.Time // when the client held the result
	trace     int       // 0 when untraced
}

func (o *op) latency() time.Duration { return o.observed.Sub(o.submitted) }

// submit POSTs a request and decodes the job view.
func submit(client *http.Client, addr string, req censusd.Request) (int, *censusd.Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	return decodeJob(resp)
}

func getJob(client *http.Client, addr, id string) (int, *censusd.Job, error) {
	resp, err := client.Get(addr + "/jobs/" + id)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	return decodeJob(resp)
}

func decodeJob(resp *http.Response) (int, *censusd.Job, error) {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return resp.StatusCode, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var j censusd.Job
	if err := json.Unmarshal(b, &j); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &j, nil
}

func terminal(state string) bool {
	return state == censusd.StateDone || state == censusd.StateFailed || state == censusd.StateCancelled
}

// do runs one submission to its result: a fresh job is polled until it
// settles; a repeat of a finished identity is answered by the POST.
func do(client *http.Client, addr string, req censusd.Request, repeat bool, poll time.Duration) *op {
	o := &op{req: req, repeat: repeat, submitted: time.Now()}
	o.code, o.job, o.err = submit(client, addr, req)
	o.submitRTT = time.Since(o.submitted)
	for o.err == nil && !terminal(o.job.State) {
		time.Sleep(poll)
		o.polls++
		_, o.job, o.err = getJob(client, addr, o.job.ID)
	}
	o.observed = time.Now()
	return o
}

// daemonWorkload runs the served workload: closed-loop clients against
// a censusd subprocess for the window, then checks every answer.
func daemonWorkload(w *workloadSpec, o runOpts, rep *report) error {
	d := w.Daemon
	if d == nil || o.censusdBin == "" {
		return fmt.Errorf("daemon-mix needs a daemon spec and -censusd")
	}
	runDir, err := os.MkdirTemp(o.workdir, "daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: d.Clients, MaxIdleConnsPerHost: d.Clients},
	}
	defer client.CloseIdleConnections()

	var setups []float64
	var srv *daemonProc
	var plans []*plan
	for i := 0; i < daemonSetupReps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("censusd exit: %w", err)
			}
		}
		t := time.Now()
		plans = newPlans(d, o.seed)
		srv, err = startCensusd(o.censusdBin, filepath.Join(runDir, strconv.Itoa(i)), d.JobSlots, client)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	poll := time.Duration(d.PollMs) * time.Millisecond
	ops := make([][]*op, d.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < o.seconds; i++ {
				req, repeat := plans[c].next()
				var root *openSpan
				if o.trace && i%2 == 0 {
					root = o.tracer.begin(o.tracer.newTrace(), 0, "job")
				}
				res := do(client, srv.addr, req, repeat, poll)
				if root != nil {
					res.trace = root.s.Trace
					traceJob(o.tracer, root, res)
				}
				ops[c] = append(ops[c], res)
			}
		}(c)
	}
	wg.Wait()
	var end time.Time
	for _, cs := range ops {
		for _, x := range cs {
			if x.observed.After(end) {
				end = x.observed
			}
		}
	}
	loop := end.Sub(start)
	peak, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return fmt.Errorf("censusd exit: %w", err)
	}

	return reportDaemon(w, o, rep, ops, loop, setups, peak)
}

// traceJob closes a job's root span and records the daemon-side
// intervals from the job's own timestamps as its children.
func traceJob(tr *tracer, root *openSpan, x *op) {
	tr.record(root.s.Trace, root.id(), "censusd.submit", x.submitted, x.submitted.Add(x.submitRTT))
	if j := x.job; x.err == nil && j != nil && j.StartedAt != nil && j.FinishedAt != nil && !x.repeat {
		tr.record(root.s.Trace, root.id(), "censusd.queue_wait", j.SubmittedAt, *j.StartedAt)
		tr.record(root.s.Trace, root.id(), "censusd.run", *j.StartedAt, *j.FinishedAt)
	}
	root.s.Start = x.submitted.Sub(tr.epoch)
	root.end()
}

// reportDaemon checks every answer and reports the daemon metrics.
// Checks run after the window: each fresh result against a direct
// census of the same normalized request, each repeat against the first
// answer for its identity.
func reportDaemon(w *workloadSpec, o runOpts, rep *report, ops [][]*op, loop time.Duration, setups []float64, peak float64) error {
	first := map[string]*censusd.Result{}
	var freshLat, tracedLat, untracedLat, dedupLat []float64
	var submitS, queueS, runS, lagS []float64
	var saves, polls, rejected, dedupHits int
	var layers []*censusLayers
	completed := 0
	var tr *tracer
	if o.trace {
		tr = o.tracer
	}
	for c, cs := range ops {
		for i, x := range cs {
			bad := ""
			switch {
			case x.code == http.StatusTooManyRequests:
				rejected++
				bad = "refused with 429"
			case x.err != nil:
				bad = x.err.Error()
			case x.job.State != censusd.StateDone || x.job.Result == nil:
				bad = fmt.Sprintf("job %s ended %s: %s", x.job.ID, x.job.State, x.job.Error)
			}
			if bad != "" {
				rep.op(true)
				rep.problem("client %d op %d: %s", c, i+1, bad)
				continue
			}
			id := x.job.ID
			if x.repeat {
				dedupHits++
				want, ok := first[id]
				switch {
				case !ok:
					bad = "repeat of an identity with no first answer"
				case !reflect.DeepEqual(want, x.job.Result):
					bad = "dedup answer differs from the first answer for its identity"
				}
				dedupLat = append(dedupLat, x.latency().Seconds())
			} else {
				if x.code != http.StatusCreated {
					bad = fmt.Sprintf("fresh identity answered %d, not 201", x.code)
				}
				first[id] = x.job.Result
				direct, err := runCensus(x.req, tr)
				switch {
				case err != nil:
					bad = "direct census: " + err.Error()
				default:
					if err := sameCensus(x.job.Result, direct.res); err != nil {
						bad = err.Error()
					}
					if direct.layers != nil {
						layers = append(layers, direct.layers)
					}
				}
				lat := x.latency().Seconds()
				freshLat = append(freshLat, lat)
				if o.trace {
					if x.trace != 0 {
						tracedLat = append(tracedLat, lat)
					} else {
						untracedLat = append(untracedLat, lat)
					}
				}
				j := x.job
				submitS = append(submitS, x.submitRTT.Seconds())
				if j.StartedAt != nil && j.FinishedAt != nil {
					queueS = append(queueS, j.StartedAt.Sub(j.SubmittedAt).Seconds())
					runS = append(runS, j.FinishedAt.Sub(*j.StartedAt).Seconds())
					lagS = append(lagS, x.observed.Sub(*j.FinishedAt).Seconds())
				}
				if j.Checkpoint != nil {
					saves += j.Checkpoint.Saves
				}
				polls += x.polls
			}
			rep.op(bad != "")
			if bad != "" {
				rep.problem("client %d op %d (%s): %s", c, i+1, id, bad)
				continue
			}
			completed++
		}
	}
	if len(freshLat) == 0 {
		return fmt.Errorf("no fresh job completed in the window")
	}
	rep.say("workload %s: %d submissions in %.2fs (%d fresh, %d repeats, %d refused), %d clients, %d job slots",
		w.Name, rep.attempted, loop.Seconds(), len(freshLat), dedupHits, rejected, w.Daemon.Clients, w.Daemon.JobSlots)
	perJob := func(n int) float64 { return float64(n) / float64(len(freshLat)) }
	if !o.trace {
		rep.put("census_s", "s", median(freshLat), "fresh job, submit to result observed; "+spreadNote(freshLat, "jobs"))
		rep.put("setup_s", "s", median(setups), fmt.Sprintf("median of %d censusd starts to /healthz", len(setups)))
		rep.put("peak_rss_mb", "MB", peak, "censusd process")
		rep.put("jobs_per_s", "1/s", float64(completed)/loop.Seconds(), "fresh and repeated jobs completed per second")
		rep.put("job_p50_s", "s", median(freshLat), fmt.Sprintf("%d fresh jobs", len(freshLat)))
		if p, v, ok := tail(freshLat); ok {
			rep.put("job_tail_s", "s", v, fmt.Sprintf("p%g of %d fresh jobs", p, len(freshLat)))
		} else {
			rep.say("metric job_tail_s: fewer than %d fresh jobs beyond the median", tailMinBeyond)
		}
		rep.put("dedup_p50_s", "s", median(dedupLat), fmt.Sprintf("%d repeats", len(dedupLat)))
		rep.put("fail_frac", "ratio", float64(rep.failed)/float64(rep.attempted), fmt.Sprintf("%d of %d", rep.failed, rep.attempted))
		rep.say("metric alloc_mb: not measured for daemon-mix (censusd exposes no allocation counter)")
	}
	rep.put("censusd.submit_s", "s", median(submitS), "POST round trip, fresh jobs")
	rep.put("censusd.queue_wait_s", "s", median(queueS), "started_at - submitted_at")
	rep.put("censusd.run_s", "s", median(runS), "finished_at - started_at")
	rep.put("censusd.observe_lag_s", "s", median(lagS), fmt.Sprintf("result observed - finished_at; %d ms polls, %.3g per job", w.Daemon.PollMs, perJob(polls)))
	rep.put("censusd.checkpoint_saves", "count", perJob(saves), "per fresh job")
	rep.put("censusd.dedup_hits", "count", float64(dedupHits), "in the window")
	rep.put("censusd.rejected", "count", float64(rejected), "429 answers in the window")
	if !o.trace {
		return nil
	}
	if err := putCensusLayers(o, rep, layers); err != nil {
		return err
	}
	if err := putSimLayer(o, rep, w.Daemon.LayerProbe); err != nil {
		return err
	}
	jobs := map[int]bool{}
	for _, cs := range ops {
		for _, x := range cs {
			if x.trace != 0 {
				jobs[x.trace] = true
			}
		}
	}
	self := layerSelf(o.tracer.spans, jobs)
	rep.say("self time per layer, mean per traced job: job=%.6gs censusd=%.6gs (job is the client's share: HTTP and the wait to observe the result)",
		self["job"].Seconds()/float64(len(jobs)), self["censusd"].Seconds()/float64(len(jobs)))
	overhead := median(tracedLat) - median(untracedLat)
	rep.put("trace.overhead_s", "s", overhead, fmt.Sprintf("fresh jobs: traced %.4gs over %d vs untraced %.4gs over %d",
		median(tracedLat), len(tracedLat), median(untracedLat), len(untracedLat)))
	return nil
}
