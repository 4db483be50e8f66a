package explore

// Orbit-aware frontier generation. The transposition table already
// collapses symmetric states mid-walk, but only after a worker has
// claimed the root and replayed its prefix — and in the distributed
// census (dist.go) there is no shared table at all, so every symmetric
// root costs a full remote exploration. This file moves the fold to
// generation time: frontier roots whose states lie in the same
// symmetry orbit (equal canonical table key — fingerprint plus
// remaining budgets) are partitioned into one REPRESENTATIVE, which is
// explored normally, and TWINS, which are never enqueued. A twin is
// credited the representative's summary renamed into its own
// orientation — the exact translation a table hit at its root node
// would have performed — so every census count stays bit-identical to
// the unpartitioned walk. Skipped roots are reported in
// PruneStats.OrbitSkips.
//
// Soundness is the transposition argument (prune.go) verbatim: equal
// table keys root identical subtrees up to the renaming the
// orientation records, and the orientation composition below is the
// same one engine.run (hit consumption) and engine.popFrame
// (canonical publication) already use.

// orbitInfo is the orbit partition of one frontier: rep[i] is the
// index of item i's representative (rep[i] == i for representatives,
// leaves and unkeyed roots), perm[i] its root state's canonical
// orientation.
type orbitInfo struct {
	rep  []int
	perm []int
}

// orbitPartition keys every prefix-bearing frontier item's root state
// and groups equal keys, first occurrence as representative. Roots
// whose state does not fingerprint (hash bail) stay their own
// representative and are explored normally — partitioning degrades,
// counts never do.
func orbitPartition(b Builder, opts Options, items []frontierItem) *orbitInfo {
	info := &orbitInfo{rep: make([]int, len(items)), perm: make([]int, len(items))}
	first := make(map[tableKey]int)
	for i, it := range items {
		info.rep[i] = i
		if it.prefix == nil {
			continue
		}
		k, perm, ok := rootOrbitKey(b, opts, it.prefix)
		if !ok {
			continue
		}
		info.perm[i] = perm
		if j, seen := first[k]; seen {
			info.rep[i] = j
		} else {
			first[k] = i
		}
	}
	return info
}

// rootOrbitKey replays prefix on a fresh system and fingerprints the
// root node exactly as the engine's prober would at its first
// post-plan decision point: canonical state hash at the moment every
// live process is parked, plus the remaining depth/crash/fault
// budgets. ok is false when the replay diverged (nondeterministic
// builder) or the state does not fingerprint.
func rootOrbitKey(b Builder, opts Options, prefix []Choice) (tableKey, int, bool) {
	p := &choicePlan{choices: prefix, capture: true}
	if _, err := p.run(b, opts); err != nil || p.dead || !p.keyed {
		return tableKey{}, 0, false
	}
	return tableKey{
		fp:       p.fp,
		depthRem: opts.MaxDepth - len(prefix),
		crashRem: opts.MaxCrashes - p.crashes,
		faultRem: opts.ObjectFaults - p.faults,
	}, p.perm, true
}

// orbitRenamerRaw is the translation for crediting a twin from a
// summary in the REPRESENTATIVE'S OWN coordinates (its ledger entry or
// RootSummary, never canonicalized): rename into canonical through
// the rep's orientation, then out through the inverse of the twin's —
// the publication and consumption steps of the shared-table flow,
// composed into one ID table (nil = identity).
func orbitRenamerRaw(ids *outcomeIDs, repPerm, twinPerm int) []int32 {
	return composeIDs(ids.renamer(repPerm), ids.renamerInv(twinPerm))
}
