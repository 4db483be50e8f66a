package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval around a call into a layer. Trace groups
// the spans of one census or one daemon job; Parent is the causing
// span's ID (0 for a root). An aggregated span stands for Count calls
// made under its parent, too frequent to record one by one: Start and
// End are then unset and Total holds their summed duration.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Count  int64         `json:"count,omitempty"`
	Total  time.Duration `json:"total_ns,omitempty"`
}

func (s span) aggregated() bool { return s.Count > 0 }

func (s span) duration() time.Duration {
	if s.aggregated() {
		return s.Total
	}
	return s.End - s.Start
}

// layer is the span name's prefix before the first dot ("explore.run"
// belongs to layer "explore").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. Times are offsets
// from the tracer's epoch so the written trace reads as one timeline.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	next   int
	traces atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace returns a fresh trace ID, one per census or daemon job.
func (t *tracer) newTrace() int { return int(t.traces.Add(1)) }

// begin opens a span; call end on the result when the call returns.
func (t *tracer) begin(trace, parent int, name string) *openSpan {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Since(t.epoch)}}
}

// record adds a span whose interval was measured elsewhere (for
// example from a daemon's job timestamps).
func (t *tracer) record(trace, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return t.next
}

// aggregate adds an aggregated span of count calls totalling total.
func (t *tracer) aggregate(trace, parent int, name string, count int64, total time.Duration) {
	if count == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Trace: trace, Name: name, Count: count, Total: total})
}

type openSpan struct {
	t *tracer
	s span
}

func (o *openSpan) id() int { return o.s.ID }

func (o *openSpan) end() time.Duration {
	o.s.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.End - o.s.Start
}

// counter accumulates calls and their time from any goroutine; it is
// how high-frequency calls become one aggregated span.
type counter struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.calls.Add(1)
	c.ns.Add(int64(d))
}

func (c *counter) total() time.Duration { return time.Duration(c.ns.Load()) }

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Plain children cover the union
// of their intervals; aggregated children cover their summed total
// (their calls are taken not to overlap each other, which holds for a
// sequential caller). Coverage never exceeds the parent's duration, so
// concurrent children cannot drive a self time below zero.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.aggregated() {
			out[s.ID] = s.Total
			continue
		}
		var cover time.Duration
		var ivs [][2]time.Duration
		for _, c := range children[s.ID] {
			if c.aggregated() {
				cover += c.Total
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var curLo, curHi time.Duration
		for i, iv := range ivs {
			if i > 0 && iv[0] <= curHi {
				curHi = max(curHi, iv[1])
				continue
			}
			cover += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
		cover += curHi - curLo
		out[s.ID] = s.duration() - min(cover, s.duration())
	}
	return out
}

// layerSelf sums self time by layer over the spans of the given traces
// (all traces when traces is nil).
func layerSelf(spans []span, traces map[int]bool) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if traces == nil || traces[s.Trace] {
			out[s.layer()] += self[s.ID]
		}
	}
	return out
}

// write stores the spans and the run's host record as one JSON file.
func (t *tracer) write(path string, host hostInfo) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Host  hostInfo `json:"host"`
		Spans []span   `json:"spans"`
	}{host, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
