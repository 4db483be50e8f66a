package explore

import (
	"testing"

	"repro/internal/sim"
)

// ForceDonation re-exports the forced-donation chaos hook for
// package explore_test cross-checks: those tests import the protocol
// packages (election, consensus), which import explore, so they cannot
// live in package explore without an import cycle.
func ForceDonation(t *testing.T) {
	t.Helper()
	forceDonation(t)
}

// SymmetryAuditRounds and SymmetryAuditSteps re-export the size of the
// equivariance audit resolveSymmetry runs.
const (
	SymmetryAuditRounds = symmetryAuditRounds
	SymmetryAuditSteps  = symmetryAuditSteps
)

// symmetricWalk runs a sequential pruned census of b with symmetry and
// returns its resolved options, which carry the census's outcome
// interner, and its root accumulator.
func symmetricWalk(b Builder, opts Options) (Options, *summary) {
	opts = censusOptions(b, opts.With(WithSymmetry()).withDefaults())
	en := &engine{b: b, opts: opts, acc: newSummary(), table: newPruneTable(0)}
	en.run()
	return opts, en.acc
}

// OutcomeIDTables runs symmetricWalk and returns what its outcome
// interner ends with: the resolved canonicalizer, every interned
// decision fingerprint (indexed by ID) and the per-permutation ID
// tables (ren[k] for OutcomeRenamer(k), inv[k] for
// OutcomeRenamerInv(k); a nil row is the identity). The canonicalizer
// is nil when symmetry was refused.
func OutcomeIDTables(b Builder, opts Options) (canon *sim.Canonicalizer, keys []string, ren, inv [][]int32) {
	opts, _ = symmetricWalk(b, opts)
	tab := opts.ids.tab.Load()
	return opts.canon, tab.keys, tab.ren, tab.inv
}

// SummaryCredit builds the credit step of a table hit for
// BenchmarkSummaryMerge: the summary of symmetricWalk spans the
// census's outcome alphabet, and the returned function merges it into
// a warm accumulator — through the ID table of the group's last
// permutation when renamed, plain otherwise.
func SummaryCredit(b Builder, opts Options, renamed bool) func() {
	opts, root := symmetricWalk(b, opts)
	stored := root.frozen(nil)
	var ren []int32
	if renamed && opts.canon != nil {
		ren = opts.ids.renamerInv(opts.canon.NumPerms() - 1)
	}
	acc := newSummary()
	acc.merge(stored, ren)
	return func() { acc.merge(stored, ren) }
}
