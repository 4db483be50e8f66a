package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndAggregated(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Trace: 1, Name: "census", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,40) once, not 20+20.
		{ID: 2, Parent: 1, Trace: 1, Name: "censusd.normalize", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Trace: 1, Name: "censusd.build", Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Trace: 1, Name: "explore.run", Start: 50 * ms, End: 90 * ms},
		// Aggregated calls under explore.run: 7 builds, 3 checks.
		{ID: 5, Parent: 4, Trace: 1, Name: "sim.build", Count: 7, Total: 5 * ms},
		{ID: 6, Parent: 4, Trace: 1, Name: "consensus.check", Count: 3, Total: 10 * ms},
		// A grandchild nested inside the first child.
		{ID: 7, Parent: 2, Trace: 1, Name: "sim.probe", Start: 12 * ms, End: 15 * ms},
	}
	want := map[int]time.Duration{
		1: 100*ms - 30*ms - 40*ms, // minus [10,40) and [50,90)
		2: 20*ms - 3*ms,
		3: 20 * ms,
		4: 40*ms - 5*ms - 10*ms,
		5: 5 * ms,
		6: 10 * ms,
		7: 3 * ms,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(span %d) = %v, want %v", id, got[id], w)
		}
	}

	layers := layerSelf(spans, map[int]bool{1: true})
	for layer, w := range map[string]time.Duration{
		"census":    30 * ms,
		"censusd":   37 * ms,
		"explore":   25 * ms,
		"sim":       8 * ms,
		"consensus": 10 * ms,
	} {
		if layers[layer] != w {
			t.Errorf("layer %s self = %v, want %v", layer, layers[layer], w)
		}
	}
	var sum time.Duration
	for _, d := range layers {
		sum += d
	}
	if sum != 110*ms { // the root's 100ms plus the 10ms its overlapping children double-count
		t.Errorf("self times sum to %v, want 110ms", sum)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	ms := time.Millisecond
	// Concurrent workers: aggregated totals exceed the parent's wall.
	spans := []span{
		{ID: 1, Trace: 1, Name: "explore.run", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Trace: 1, Name: "consensus.check", Count: 40, Total: 15 * ms},
		{ID: 3, Parent: 1, Trace: 1, Name: "sim.build", Start: 5 * ms, End: 20 * ms},
	}
	if got := selfTimes(spans)[1]; got != 0 {
		t.Errorf("self = %v, want 0", got)
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := newTracer()
	id := tr.newTrace()
	root := tr.begin(id, 0, "census")
	child := tr.begin(id, root.id(), "explore.run")
	child.end()
	tr.aggregate(id, child.id(), "consensus.check", 3, time.Microsecond)
	tr.aggregate(id, child.id(), "sim.build", 0, 0) // no calls, no span
	root.end()
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3: %+v", len(tr.spans), tr.spans)
	}
	for _, s := range tr.spans {
		if s.Trace != id {
			t.Errorf("span %s in trace %d, want %d", s.Name, s.Trace, id)
		}
		if !s.aggregated() && s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if tr.newTrace() == id {
		t.Error("trace IDs must be fresh")
	}
}
