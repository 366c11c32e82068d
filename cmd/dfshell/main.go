// Command dfshell is an interactive SQL shell over the data-flow engine:
// it loads the generated lineitem/orders tables into a Figure 6 cluster
// and executes SELECT statements from stdin, printing results, the
// chosen placement, and the movement stats after each query.
//
//	go run ./cmd/dfshell [-rows N]
//
// Meta commands: \tables, \explain <sql>, \stats [<table>], \trace,
// \metrics, \scrub, \topo, \quit. Bare \stats toggles the full
// execution-stats block after each query; \trace toggles virtual-time
// tracing, printing a per-device span timeline and the concurrency
// factor; \metrics prints the live fleet registry — every query executed
// in the session lands on its counters, histograms and gauges; \scrub
// turns on self-healing storage (checksum verification + read-repair)
// the first time and runs one scrub + re-replication pass, printing the
// durability report. Prefixing a statement with EXPLAIN ANALYZE traces
// just that one query.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs/metrics"
	"repro/internal/repair"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func main() {
	rows := flag.Int("rows", 50000, "lineitem rows to generate")
	flag.Parse()

	cluster := fabric.NewCluster(fabric.DefaultClusterConfig())
	eng := core.NewDataFlowEngine(cluster)
	reg := metrics.New()
	eng.Metrics = reg
	lcfg := workload.DefaultLineitemConfig(*rows)
	lcfg.Orders = int64(*rows / 4)
	must(eng.CreateTable("lineitem", workload.LineitemSchema()))
	must(eng.Load("lineitem", workload.GenLineitem(lcfg)))
	must(eng.CreateTable("orders", workload.OrdersSchema()))
	must(eng.Load("orders", workload.GenOrders(*rows/4, 7)))

	fmt.Printf("dfshell — data-flow engine over %s\n", cluster.Name)
	fmt.Printf("tables: lineitem (%d rows), orders (%d rows)\n", *rows, *rows/4)
	fmt.Println(`type SQL, or \tables \explain <sql> \stats [<table>] \trace \metrics \scrub \topo \quit`)

	showStats := false
	var ctrl *repair.Controller
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("df> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			for _, name := range eng.Storage.Tables() {
				schema, err := eng.TableSchema(name)
				if err != nil {
					continue
				}
				fmt.Printf("  %s %s\n", name, schema)
			}
		case line == `\topo`:
			fmt.Print(cluster.String())
		case line == `\metrics`:
			if err := reg.WriteText(os.Stdout, time.Now()); err != nil {
				fmt.Println("error:", err)
			}
		case line == `\trace`:
			eng.Tracing = !eng.Tracing
			if eng.Tracing {
				fmt.Println("tracing on: queries print a per-device span timeline")
			} else {
				fmt.Println("tracing off")
			}
		case line == `\scrub`:
			if ctrl == nil {
				ctrl = eng.EnableRepair(repair.Config{})
				fmt.Println("self-healing on: reads verify checksums and write back repairs")
			}
			sum := ctrl.ScrubPass(context.Background())
			ctrl.ReclonePass(context.Background())
			rep := ctrl.Stats()
			fmt.Printf("scrub: %d clean, %d corrupt (%d healed), %d lost\n",
				sum.Clean, sum.Corrupt, sum.Healed, sum.Lost)
			fmt.Printf("lifetime: read-repairs=%d scrub-heals=%d recloned=%d unrecoverable=%d at-risk=%d",
				rep.ReadRepairs, rep.ScrubRepairs, rep.Recloned, rep.Unrecoverable, rep.AtRiskObjects)
			if rep.LastMTTR > 0 {
				fmt.Printf(" mttr=%s", rep.LastMTTR)
			}
			fmt.Println()
		case line == `\stats`:
			showStats = !showStats
			if showStats {
				fmt.Println("stats on: queries print the full execution-stats block")
			} else {
				fmt.Println("stats off")
			}
		case strings.HasPrefix(line, `\stats `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\stats `))
			st, err := eng.Stats(name)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("  rows=%d bytes=%s\n", st.Rows, st.TotalBytes())
		case strings.HasPrefix(line, `\explain `):
			sql := strings.TrimPrefix(line, `\explain `)
			q, err := sqlparse.Parse(sql, eng)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			variants, err := eng.Plan(q, 0)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, v := range variants {
				fmt.Print(v.Explain())
			}
		case strings.HasPrefix(line, `\`):
			fmt.Println("unknown meta command:", line)
		default:
			sql, analyze := sqlparse.StripExplainAnalyze(line)
			q, err := sqlparse.Parse(sql, eng)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			wasTracing := eng.Tracing
			if analyze {
				eng.Tracing = true
			}
			res, err := eng.Execute(context.Background(), q)
			eng.Tracing = wasTracing
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(res.Format(20))
			if showStats {
				fmt.Println(res.Stats.String())
			} else {
				fmt.Printf("-- %d rows via %q: moved %s, cpu %s, simtime %s\n",
					res.Rows(), res.Stats.Variant, res.Stats.MovedBytes,
					res.Stats.CPUBytes, res.Stats.SimTime)
			}
			if err := res.Trace.WriteTimeline(os.Stdout, 64); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
