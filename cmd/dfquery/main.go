// Command dfquery loads a generated lineitem table and runs one query on
// the chosen engine, printing the plan variants, the result, and the
// execution stats — a quick way to see where the optimizer places
// operators along the data path and what that does to data movement.
//
// Usage:
//
//	dfquery [-engine dataflow|volcano|both] [-rows N] [-query pricing|filter|count|parts]
//	        [-sql "SELECT ..."] [-variant name] [-fabric smart|legacy] [-explain]
//	        [-analyze] [-trace FILE] [-metrics]
//
// With -sql, the statement is parsed against the lineitem schema
// (columns l_orderkey, l_partkey, l_suppkey, l_quantity,
// l_extendedprice, l_discount, l_shipdate, l_returnflag, l_comment),
// e.g.:
//
//	dfquery -sql "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem
//	              WHERE l_shipdate BETWEEN 0 AND 500 GROUP BY l_returnflag"
//
// -analyze (or an EXPLAIN ANALYZE prefix on the -sql statement) records
// a virtual-time trace during execution and prints a per-device span
// timeline plus the concurrency factor — the mean number of
// simultaneously busy resources — after each engine's stats. -trace FILE
// additionally writes the recorded timelines as a Chrome/Perfetto trace
// (load at ui.perfetto.dev).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// staticCatalog resolves SQL table names before any engine is built.
type staticCatalog struct{}

func (staticCatalog) TableSchema(name string) (*columnar.Schema, error) {
	if name != "lineitem" {
		return nil, fmt.Errorf("unknown table %q (dfquery serves the generated lineitem)", name)
	}
	return workload.LineitemSchema(), nil
}

func buildQuery(name string, cfg workload.LineitemConfig) (*plan.Query, error) {
	switch name {
	case "pricing":
		return plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.1)).
			WithGroupBy(workload.PricingSummary()), nil
	case "filter":
		return plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.01)).
			WithProjection(workload.LOrderKey, workload.LExtendedPrice), nil
	case "count":
		return plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.25)).
			WithCount(), nil
	case "parts":
		return plan.NewQuery("lineitem").WithGroupBy(workload.PartVolume()).
			WithOrderBy(1).WithLimit(10), nil
	}
	return nil, fmt.Errorf("unknown query %q (want pricing|filter|count|parts)", name)
}

func main() {
	engine := flag.String("engine", "both", "dataflow, volcano or both")
	rows := flag.Int("rows", 50000, "lineitem rows to generate")
	queryName := flag.String("query", "pricing", "query template: pricing|filter|count|parts")
	sqlText := flag.String("sql", "", "SQL SELECT over the lineitem table (overrides -query)")
	variant := flag.String("variant", "", "force a dataflow plan variant (e.g. cpu-only)")
	fabricKind := flag.String("fabric", "smart", "smart or legacy cluster for the dataflow engine")
	explain := flag.Bool("explain", false, "print all plan variants before executing")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE: trace execution and print per-device timelines")
	tracePath := flag.String("trace", "", "write the recorded timelines as a Perfetto trace to FILE (implies -analyze)")
	maxRows := flag.Int("maxrows", 10, "result rows to print")
	showMetrics := flag.Bool("metrics", false, "collect fleet metrics during execution and print the registry after the run")
	flag.Parse()

	var reg *metrics.Registry
	if *showMetrics {
		reg = metrics.New()
	}

	cfg := workload.DefaultLineitemConfig(*rows)
	data := workload.GenLineitem(cfg)
	sql, hasAnalyze := sqlparse.StripExplainAnalyze(*sqlText)
	tracing := *analyze || hasAnalyze || *tracePath != ""
	var q *plan.Query
	var err error
	if sql != "" {
		q, err = sqlparse.Parse(sql, staticCatalog{})
	} else {
		q, err = buildQuery(*queryName, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n\n", q)
	var procs []obs.Process

	if *engine == "dataflow" || *engine == "both" {
		ccfg := fabric.DefaultClusterConfig()
		if *fabricKind == "legacy" {
			ccfg = fabric.LegacyClusterConfig()
		}
		eng := core.NewDataFlowEngine(fabric.NewCluster(ccfg))
		eng.Tracing = tracing
		eng.Metrics = reg
		must(eng.CreateTable("lineitem", workload.LineitemSchema()))
		must(eng.Load("lineitem", data))

		variants, err := eng.Plan(q, 0)
		if err != nil {
			log.Fatal(err)
		}
		if *explain {
			for _, v := range variants {
				fmt.Println(v.Explain())
			}
		}
		chosen := variants[0]
		if *variant != "" {
			chosen = nil
			for _, v := range variants {
				if v.Variant == *variant {
					chosen = v
				}
			}
			if chosen == nil {
				log.Fatalf("variant %q not produced; available: %v", *variant, variantNames(variants))
			}
		}
		res, err := eng.ExecutePlan(context.Background(), chosen)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- dataflow (%s fabric, variant %s) ---\n", *fabricKind, chosen.Variant)
		fmt.Print(res.Format(*maxRows))
		fmt.Println(res.Stats.String())
		must(res.Trace.WriteTimeline(os.Stdout, 64))
		if res.Trace != nil {
			procs = append(procs, obs.Process{Name: "dataflow", Trace: res.Trace})
		}
	}

	if *engine == "volcano" || *engine == "both" {
		eng := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 512*sim.MB)
		eng.Tracing = tracing
		eng.Metrics = reg
		must(eng.CreateTable("lineitem", workload.LineitemSchema()))
		must(eng.Load("lineitem", data))
		res, err := eng.Execute(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("--- volcano (legacy fabric, buffer pool) ---")
		fmt.Print(res.Format(*maxRows))
		fmt.Println(res.Stats.String())
		must(res.Trace.WriteTimeline(os.Stdout, 64))
		if res.Trace != nil {
			procs = append(procs, obs.Process{Name: "volcano", Trace: res.Trace})
		}
	}

	if reg != nil {
		// Both engines shared the registry, so the fleet totals cover the
		// whole run; the engine.queries{engine=...} series separates them.
		fmt.Println("--- fleet metrics ---")
		if err := reg.WriteText(os.Stdout, time.Now()); err != nil {
			log.Fatal(err)
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WritePerfetto(f, procs...); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote Perfetto trace to %s\n", *tracePath)
	}
}

func variantNames(vs []*plan.Physical) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Variant
	}
	return names
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
