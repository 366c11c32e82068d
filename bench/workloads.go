package main

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/workload"
)

// workloadDef names a workload and says why it is in the benchmark.
// BENCHMARK.json repeats both; a test keeps the two in step.
type workloadDef struct {
	name, why string
	// selectivity of the shipdate range predicate; 0 for no filter.
	selectivity float64
}

var workloadDefs = []workloadDef{
	{"scan-selective", "1% shipdate range, 2 of 9 columns: the storage read path and the encoded predicate kernels do the work; decode, operators and flow are idle", 0.01},
	{"scan-wide", "same predicate at 50%, all 9 columns, 262k result rows: gather-decode and materialisation do the work; the read path is about 5%", 0.50},
	{"agg-lowcard", "TPC-H Q1 shape at 90%: aggregation, expression evaluation, filter and flow ports do the work; the storage predicate kernels are bypassed", 0.90},
	{"small-query", "the scan-selective query on a 4,096-row table: planning, admission, pipeline set-up and stats are nearly all of it; the control for data-path changes", 0.01},
	{"ingest", "loads one 65,536-row batch per op: encode, marshal, put and statistics, the write side of what the scans read; shows a format that decodes faster but encodes slower or stores bigger", 0},
}

// benchWorkload is a workloadDef bound to a fixture: the query the
// engine receives (no workload name ever reaches it) and its oracle.
type benchWorkload struct {
	workloadDef
	table     string
	inputRows int64 // rows one op reads, or for ingest writes
	// query is what each op executes; for ingest, the COUNT(*) that
	// reads the loaded batches back.
	query *plan.Query
	ref   *oracle
}

// workload builds the named workload and its driver. The oracle is
// computed here from the generated rows.
func (fx *fixture) workload(name string) (*benchWorkload, driver, error) {
	for _, def := range workloadDefs {
		if def.name != name {
			continue
		}
		w := &benchWorkload{workloadDef: def, table: tableBig}
		filter := workload.SelectivityFilter(fx.gen[tableBig], def.selectivity).(*expr.Between)
		switch name {
		case "scan-selective", "small-query":
			if name == "small-query" {
				w.table = tableSmall
			}
			cols := []int{workload.LOrderKey, workload.LExtendedPrice}
			w.query = plan.NewQuery(w.table).WithFilter(filter).WithProjection(cols...)
			w.ref = scanOracle(fx.raw[w.table], filter.Lo, filter.Hi, cols)
		case "scan-wide":
			w.query = plan.NewQuery(w.table).WithFilter(filter)
			all := make([]int, workload.LineitemSchema().NumFields())
			for i := range all {
				all[i] = i
			}
			w.ref = scanOracle(fx.raw[w.table], filter.Lo, filter.Hi, all)
		case "agg-lowcard":
			w.query = plan.NewQuery(w.table).WithFilter(filter).WithGroupBy(workload.PricingSummary())
			w.ref = aggOracle(fx.raw[w.table], filter.Lo, filter.Hi)
		case "ingest":
			w.table = tableIngest
			w.query = plan.NewQuery(w.table).WithCount()
			w.ref = countOracle(int64(ingestCycle * fx.raw[w.table].NumRows()))
			w.inputRows = int64(fx.raw[w.table].NumRows())
			d := &ingestDriver{fx: fx, w: w}
			return w, d, d.reset()
		}
		w.inputRows = int64(fx.raw[w.table].NumRows())
		return w, &queryDriver{fx: fx, w: w}, nil
	}
	return nil, nil, fmt.Errorf("bench: unknown workload %q", name)
}
