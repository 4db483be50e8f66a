package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json, which must name the
// workloads and metrics this program reports.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var gotW, wantW, gotE, gotL []string
	for _, w := range b.Workloads {
		gotW = append(gotW, w.Name)
	}
	for _, w := range spec.Workloads {
		wantW = append(wantW, w.Name)
	}
	for _, m := range b.EndToEnd {
		gotE = append(gotE, m.Name)
	}
	for _, m := range b.PerLayer {
		gotL = append(gotL, m.Name)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads %v, workloads.json %v", gotW, wantW)
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", gotE, endToEnd)
	}
	if !reflect.DeepEqual(gotL, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", gotL, perLayer)
	}
}

func TestPredictionsNameKnownMetricsAndWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range spec.Metrics {
		metrics[m.Name] = true
	}
	for _, n := range append(append([]string{}, endToEnd...), perLayer...) {
		if !metrics[n] {
			t.Errorf("metric %s is reported but not documented in workloads.json", n)
		}
	}
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
		if w.Why == "" || len(w.Loads) == 0 || len(w.Bypasses) == 0 {
			t.Errorf("workload %s lacks why, loads or bypasses", w.Name)
		}
		if (w.Request == nil) == (w.Daemon == nil) {
			t.Errorf("workload %s needs exactly one of request and daemon", w.Name)
		}
		if w.Request != nil && w.Golden == nil {
			t.Errorf("census workload %s has no golden record", w.Name)
		}
	}
	for _, p := range spec.Predictions {
		if !metrics[p.Metric] {
			t.Errorf("prediction for unknown metric %s", p.Metric)
		}
		for _, m := range p.Moves {
			if !metrics[m] {
				t.Errorf("prediction %s moves unknown metric %s", p.Metric, m)
			}
		}
		for _, w := range append(append([]string{}, p.On...), p.UnchangedOn...) {
			if !workloads[w] {
				t.Errorf("prediction %s names unknown workload %s", p.Metric, w)
			}
		}
	}
}
