package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/censusd"
	"repro/internal/explore"
)

// golden is the recorded answer of one census: the counts, a digest of
// the outcome histogram, and the promise that the walk was exhaustive.
type golden struct {
	Complete       int    `json:"complete"`
	Incomplete     int    `json:"incomplete"`
	ViolationRuns  int    `json:"violation_runs"`
	OutcomesDigest string `json:"outcomes_digest"`
	Exhaustive     bool   `json:"exhaustive"`
}

// outcomesDigest hashes a histogram as sorted "key<TAB>count" lines:
// the first 16 hex digits of their SHA-256.
func outcomesDigest(outcomes map[string]int) string {
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\t%d\n", k, outcomes[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func goldenOf(r *censusd.Result) golden {
	return golden{
		Complete:       r.Complete,
		Incomplete:     r.Incomplete,
		ViolationRuns:  r.ViolationRuns,
		OutcomesDigest: outcomesDigest(r.Outcomes),
		Exhaustive:     r.Exhaustive,
	}
}

// checkGolden compares a census result with its recorded answer. A
// census that is not exhaustive fails even if the recording says it
// was not: every workload sets maxruns above its census total.
func checkGolden(want golden, r *censusd.Result) error {
	got := goldenOf(r)
	var bad []string
	if !got.Exhaustive {
		bad = append(bad, "census not exhaustive")
	}
	if got != want {
		bad = append(bad, fmt.Sprintf("got %+v, want %+v", got, want))
	}
	if len(bad) > 0 {
		return fmt.Errorf("golden check: %s", strings.Join(bad, "; "))
	}
	return nil
}

// sameCensus reports whether two results of the same exploration agree
// on everything the census defines. Reducer and work-stealing counters
// are left out: they depend on engine and worker count, counts do not.
func sameCensus(a, b *censusd.Result) error {
	ga, gb := goldenOf(a), goldenOf(b)
	if ga != gb {
		return fmt.Errorf("census mismatch: %+v vs %+v", ga, gb)
	}
	if !ga.Exhaustive {
		return fmt.Errorf("census not exhaustive")
	}
	return nil
}

// pruneCounts are the table counters a workers=1 census must repeat
// exactly from census to census.
type pruneCounts struct {
	Probes, Hits, Misses, Stores uint64
}

func pruneCountsOf(p *explore.PruneStats) pruneCounts {
	if p == nil {
		return pruneCounts{}
	}
	return pruneCounts{Probes: p.Probes, Hits: p.Hits, Misses: p.Misses, Stores: p.Stores}
}
