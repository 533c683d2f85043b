package warehouse

import (
	"opdelta/internal/obs"
)

// applyMetrics are one integrator's registry series, labelled by
// integrator kind ("value" or "parallel") so value-delta batches and
// op replay are distinguishable on the same warehouse registry. The
// registry is the warehouse engine's (DB.Obs()), so each engine
// instance — and thus each bench run's fresh warehouse — keeps its own
// counters.
type applyMetrics struct {
	// txns counts source transactions applied (a value-delta batch is
	// one); commits counts the warehouse transactions that committed
	// them, fewer where a run of point-only source transactions shares
	// one.
	txns       *obs.Counter
	commits    *obs.Counter
	records    *obs.Counter
	statements *obs.Counter
	// txnSeconds observes each warehouse transaction begin→commit,
	// lock pre-declaration and the wait for its commit turn included:
	// the slice of the maintenance window one source transaction, or
	// one run of them, costs.
	txnSeconds *obs.Histogram

	// skippedDup counts ops recognized as already applied (at-least-once
	// redelivery): at or below the AppliedLog's high-water seq.
	skippedDup *obs.Counter

	// Degradation events: the scheduler giving up precision.
	// degradedUniversal counts groups that fell back to
	// conflicts-with-everything (unparseable op / unbounded key set);
	// degradedWholeTable counts table lock plans widened from key
	// ranges to a whole-table lock (join views, agg views, PK-dropping
	// views, fallback analysis).
	degradedUniversal  *obs.Counter
	degradedWholeTable *obs.Counter
}

func newApplyMetrics(reg *obs.Registry, integrator string) *applyMetrics {
	l := obs.L("integrator", integrator)
	return &applyMetrics{
		txns:               reg.Counter("warehouse_apply_txns_total", l),
		commits:            reg.Counter("warehouse_apply_commits_total", l),
		records:            reg.Counter("warehouse_apply_records_total", l),
		statements:         reg.Counter("warehouse_apply_statements_total", l),
		txnSeconds:         reg.Histogram("warehouse_apply_txn_seconds", obs.DurationBuckets, l),
		skippedDup:         reg.Counter("warehouse_apply_skipped_duplicate_total", l),
		degradedUniversal:  reg.Counter("warehouse_degraded_universal_total", l),
		degradedWholeTable: reg.Counter("warehouse_degraded_whole_table_total", l),
	}
}
