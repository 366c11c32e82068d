package experiments

import (
	"slices"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/plan"
)

// The fixture every experiment shares: load a batch into an engine, pick
// a plan variant, read a quantile.

// loadDataFlow creates table name on df with data's schema and loads
// data into it. Whatever must be in place before the load (SegmentRows,
// replicas, Workers) the caller sets first.
func loadDataFlow(df *core.DataFlowEngine, name string, data *columnar.Batch) error {
	if err := df.CreateTable(name, data.Schema()); err != nil {
		return err
	}
	return df.Load(name, data)
}

// loadVolcano is loadDataFlow for the pull baseline.
func loadVolcano(vo *core.VolcanoEngine, name string, data *columnar.Batch) error {
	if err := vo.CreateTable(name, data.Schema()); err != nil {
		return err
	}
	return vo.Load(name, data)
}

// pickVariant returns the first variant that satisfies ok, nil when none
// does.
func pickVariant(variants []*plan.Physical, ok func(*plan.Physical) bool) *plan.Physical {
	for _, v := range variants {
		if ok(v) {
			return v
		}
	}
	return nil
}

// named matches a variant carrying any of the given names.
func named(names ...string) func(*plan.Physical) bool {
	return func(v *plan.Physical) bool { return slices.Contains(names, v.Variant) }
}

// quantile reads the p-quantile from an ascending-sorted sample by the
// nearest-rank method — the same rule the HDR histogram uses, so a
// comparison against it isolates bucketing error.
func quantile[T ~int64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
