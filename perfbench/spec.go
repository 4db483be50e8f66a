package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/censusd"
)

// workloadsJSON documents and defines every workload: its exact
// request, why it was chosen, the layers it loads and bypasses, its
// recorded answer, and which end-to-end metric each per-layer metric
// should move on which workload.
//
//go:embed workloads.json
var workloadsJSON []byte

type specFile struct {
	Workloads   []workloadSpec `json:"workloads"`
	Metrics     []metricDoc    `json:"metrics"`
	Predictions []prediction   `json:"predictions"`
}

type workloadSpec struct {
	Name     string           `json:"name"`
	Why      string           `json:"why"`
	Loads    []string         `json:"loads"`
	Bypasses []string         `json:"bypasses"`
	Request  *censusd.Request `json:"request,omitempty"`
	Golden   *golden          `json:"golden,omitempty"`
	Daemon   *daemonSpec      `json:"daemon,omitempty"`
}

// daemonSpec is the served workload: closed-loop clients submitting a
// seeded mix of short censuses to a censusd subprocess.
type daemonSpec struct {
	Clients  int `json:"clients"`
	JobSlots int `json:"job_slots"`
	// RepeatEvery: one submission in each block of RepeatEvery (at
	// least 2) resubmits an identity the same client already saw finish.
	RepeatEvery int `json:"repeat_every"`
	// PollMs is how often a client polls a fresh job for its result.
	PollMs int `json:"poll_ms"`
	// Shapes are the census requests fresh jobs are dealt from; each
	// fresh job gets its own maxruns (all far above any census total),
	// which gives it an identity of its own. An odd count keeps the
	// median fresh job inside one shape's latency cluster rather than
	// on the boundary between two.
	Shapes []censusd.Request `json:"shapes"`
	// LayerProbe is the builder the simulator layer is timed on.
	LayerProbe censusd.Request `json:"layer_probe"`
}

type metricDoc struct {
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	Kind    string `json:"kind"` // end_to_end or per_layer
	Meaning string `json:"meaning"`
}

type prediction struct {
	Metric      string   `json:"metric"`
	Moves       []string `json:"moves"`
	On          []string `json:"on"`
	UnchangedOn []string `json:"unchanged_on,omitempty"`
}

func loadSpec() (*specFile, error) {
	var s specFile
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &s, nil
}

func (s *specFile) workload(name string) (*workloadSpec, error) {
	var names []string
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
		names = append(names, s.Workloads[i].Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
