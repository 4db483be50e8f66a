package explore

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Outcome interning. A census histograms complete runs by decision
// fingerprint ("[1 1 2]"), and the pruned engines merge those
// histograms at every table hit — hundreds of thousands of times per
// census. The alphabet of distinct fingerprints is tiny, so each
// census interns them to dense IDs once, where a terminal run is
// classified (summary.addTerminal), and every summary holds a count
// vector indexed by ID: a merge is element-wise addition, and strings
// reappear only where a census leaves the engine (censusFrom,
// rootSummaryOf) or enters it from a checkpoint or a remote worker
// (RootSummary.toSummary).
//
// Symmetry renaming becomes a table lookup the same way. When a key is
// first interned, its renaming under every permutation of the
// canonicalizer's group is interned too, so the interned set is closed
// under the group and every permutation's ID table covers every ID.

// outcomeIDs is one census's interner, shared by every engine, the
// steal pool and the fold through Options. Interning takes mu; readers
// use the immutable snapshot behind tab and never lock.
type outcomeIDs struct {
	canon *sim.Canonicalizer

	mu    sync.Mutex
	index map[string]int32 // guarded by mu
	tab   atomic.Pointer[outcomeTab]
}

// outcomeTab is a published snapshot of the interner: the key of every
// ID and, under symmetry, the per-permutation renaming tables. ren[k]
// maps an ID to the ID of its key renamed by OutcomeRenamer(k), inv[k]
// likewise for OutcomeRenamerInv(k); a nil row is the identity.
//
// A snapshot is never written at an index it covers. Interning extends
// keys and rows by append, which writes only past the old lengths —
// indices no published snapshot exposes — or copies into a new array,
// so readers holding an older snapshot stay race-free.
type outcomeTab struct {
	keys     []string
	ren, inv [][]int32
}

func newOutcomeIDs(canon *sim.Canonicalizer) *outcomeIDs {
	ids := &outcomeIDs{canon: canon, index: make(map[string]int32)}
	tab := &outcomeTab{}
	if canon != nil {
		tab.ren = make([][]int32, canon.NumPerms())
		tab.inv = make([][]int32, canon.NumPerms())
	}
	ids.tab.Store(tab)
	return ids
}

// id interns key and returns its ID.
func (ids *outcomeIDs) id(key string) int32 {
	ids.mu.Lock()
	defer ids.mu.Unlock()
	if id, ok := ids.index[key]; ok {
		return id
	}
	old := ids.tab.Load()
	tab := &outcomeTab{keys: old.keys, ren: slices.Clone(old.ren), inv: slices.Clone(old.inv)}
	var id int32
	tab.keys, id = ids.add(tab.keys, key)
	if ids.canon != nil {
		// Close the orbit: each new key's renamings under every
		// permutation are interned in turn, and the loop reaches them
		// too, so row entry i is appended exactly when key i is visited.
		for i := int(id); i < len(tab.keys); i++ {
			for k := range tab.ren {
				tab.keys, tab.ren[k] = ids.renameInto(tab.keys, tab.ren[k], tab.keys[i], ids.canon.OutcomeRenamer(k))
				tab.keys, tab.inv[k] = ids.renameInto(tab.keys, tab.inv[k], tab.keys[i], ids.canon.OutcomeRenamerInv(k))
			}
		}
	}
	ids.tab.Store(tab)
	return id
}

// add interns key into keys and returns its ID; callers hold mu.
func (ids *outcomeIDs) add(keys []string, key string) ([]string, int32) {
	if id, ok := ids.index[key]; ok {
		return keys, id
	}
	id := int32(len(keys))
	ids.index[key] = id
	return append(keys, key), id
}

// renameInto interns key renamed by rename and appends its ID to row; a
// nil rename keeps the identity's nil row. Callers hold mu.
func (ids *outcomeIDs) renameInto(keys []string, row []int32, key string, rename func(string) string) ([]string, []int32) {
	if rename == nil {
		return keys, nil
	}
	keys, id := ids.add(keys, rename(key))
	return keys, append(row, id)
}

// renamer is the ID table of OutcomeRenamer(k) (nil = identity, as for
// k = 0 and for every k without symmetry). It covers every ID interned
// before the call, so load it after the summary it translates is
// complete.
func (ids *outcomeIDs) renamer(k int) []int32 {
	if ids.canon == nil {
		return nil
	}
	return ids.tab.Load().ren[k]
}

// renamerInv is renamer under OutcomeRenamerInv(k).
func (ids *outcomeIDs) renamerInv(k int) []int32 {
	if ids.canon == nil {
		return nil
	}
	return ids.tab.Load().inv[k]
}

// composeIDs is the ID table of applying a then b (nil = identity).
func composeIDs(a, b []int32) []int32 {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	out := make([]int32, len(a))
	for i, j := range a {
		out[i] = b[j]
	}
	return out
}

// outcomeMap renders a count vector as the string-keyed histogram, zero
// entries skipped. It returns nil for an all-zero vector.
func (ids *outcomeIDs) outcomeMap(counts []int) map[string]int {
	keys := ids.tab.Load().keys
	var out map[string]int
	for id, n := range counts {
		if n == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]int)
		}
		out[keys[id]] = n
	}
	return out
}
