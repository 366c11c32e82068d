package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/plan"
)

// The fixture every experiment shares: load a batch into an engine, run
// one plan variant, read a quantile.

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

// runVariant plans q for compute node 0 and executes the best-ranked
// variant that satisfies ok; what names that variant in the error when
// the optimizer produced none.
func runVariant(df *core.DataFlowEngine, q *plan.Query, what string, ok func(*plan.Physical) bool) (*core.Result, error) {
	variants, err := df.Plan(q, 0)
	if err != nil {
		return nil, err
	}
	i := slices.IndexFunc(variants, ok)
	if i < 0 {
		return nil, fmt.Errorf("experiments: no %s variant for %s", what, q)
	}
	return df.ExecutePlan(context.Background(), variants[i])
}

// runNamed is runVariant for the best-ranked variant carrying any of the
// given names.
func runNamed(df *core.DataFlowEngine, q *plan.Query, names ...string) (*core.Result, error) {
	return runVariant(df, q, strings.Join(names, " or "), func(v *plan.Physical) bool {
		return slices.Contains(names, v.Variant)
	})
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
