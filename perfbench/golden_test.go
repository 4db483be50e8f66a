package main

import (
	"strings"
	"testing"

	"repro/internal/censusd"
)

func sampleResult() *censusd.Result {
	return &censusd.Result{
		Complete:   30,
		Outcomes:   map[string]int{"[100 100]": 14, "[101 101]": 14, "[100]": 1, "[101]": 1},
		Exhaustive: true,
	}
}

func TestGoldenAcceptsItsOwnRecord(t *testing.T) {
	r := sampleResult()
	if err := checkGolden(goldenOf(r), r); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenRejectsTamperedCensus(t *testing.T) {
	want := goldenOf(sampleResult())
	for name, tamper := range map[string]func(*censusd.Result){
		"complete":       func(r *censusd.Result) { r.Complete++ },
		"incomplete":     func(r *censusd.Result) { r.Incomplete = 1 },
		"violation_runs": func(r *censusd.Result) { r.ViolationRuns = 2 },
		"histogram":      func(r *censusd.Result) { r.Outcomes["[100]"]++; r.Outcomes["[101]"]-- },
		"outcome key":    func(r *censusd.Result) { r.Outcomes["[102]"] = r.Outcomes["[101]"]; delete(r.Outcomes, "[101]") },
	} {
		r := sampleResult()
		tamper(r)
		if err := checkGolden(want, r); err == nil {
			t.Errorf("tampered %s: golden check passed", name)
		}
	}
}

func TestGoldenRejectsNonExhaustiveCensus(t *testing.T) {
	r := sampleResult()
	r.Exhaustive = false
	// Even a recording that (wrongly) expects a cut census must fail:
	// every workload sets maxruns above its census total.
	err := checkGolden(goldenOf(r), r)
	if err == nil || !strings.Contains(err.Error(), "not exhaustive") {
		t.Fatalf("non-exhaustive census: got %v", err)
	}
	if err := sameCensus(r, r); err == nil {
		t.Error("sameCensus accepted a non-exhaustive census")
	}
}

func TestSameCensusIgnoresEngineCounters(t *testing.T) {
	a, b := sampleResult(), sampleResult()
	a.Violations = []string{"0 1"}
	b.Supervision = &censusd.Supervision{Attempts: 3}
	if err := sameCensus(a, b); err != nil {
		t.Fatal(err)
	}
	b.Outcomes["[100]"] = 2
	if err := sameCensus(a, b); err == nil {
		t.Error("sameCensus accepted different histograms")
	}
}

func TestOutcomesDigestIsOrderFree(t *testing.T) {
	a := map[string]int{"x": 1, "y": 2}
	b := map[string]int{"y": 2, "x": 1}
	if outcomesDigest(a) != outcomesDigest(b) {
		t.Error("digest depends on map order")
	}
	if outcomesDigest(a) == outcomesDigest(map[string]int{"x": 2, "y": 1}) {
		t.Error("digest ignores counts")
	}
}
