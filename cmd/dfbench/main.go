// Command dfbench regenerates every experiment table in EXPERIMENTS.md.
//
// Usage:
//
//	dfbench [-rows N] [-only E2,E7] [-list] [-trace FILE] [-json FILE]
//	        [-deadline D] [-offered-load 1,4,16] [-hedge=false] [-scrub=false]
//	        [-metrics-addr :9090] [-metrics-hold D] [-metrics-json FILE]
//
// Each experiment reproduces the scenario of one figure or Section-7
// claim of "Data Flow Architectures for Data Processing on Modern
// Hardware" (Lerner & Alonso, ICDE 2024) and prints the rows the paper's
// argument predicts.
//
// The experiments are experiments.Catalogue, in its order; -list prints
// it, marking with [wall-clock] the entries whose numbers differ from
// run to run (every other table is byte-identical across runs).
//
// -trace FILE writes a Chrome/Perfetto trace (load at ui.perfetto.dev)
// of the E20 staged-overlap run: both engines' virtual-time timelines as
// separate processes. Traces are deterministic for a fixed -rows, so CI
// diffs two runs byte-for-byte.
//
// -json FILE writes a machine-readable perf artifact (conventionally
// BENCH_results.json): every executed experiment's key metrics.
//
// -deadline and -offered-load parameterize the E21 lifecycle sweep: the
// per-query deadline its overload half judges shedding against, and the
// concurrent-arrival burst sizes it offers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs/metrics"
)

var (
	deadline = flag.Duration("deadline", 0,
		"per-query deadline for the E21 overload sweep (0 = experiment default)")
	offeredLoad = flag.String("offered-load", "",
		"comma-separated E21 burst sizes, e.g. 1,4,16 (empty = experiment default)")
	workersFlag = flag.String("workers", "",
		"comma-separated worker counts for the E22 parallelism sweep, e.g. 1,2,4,8 (empty = experiment default)")
	hedgeFlag = flag.Bool("hedge", true,
		"run the hedging+speculation arm of the E24 tail-latency sweep (false = baseline only)")
	scrubFlag = flag.Bool("scrub", true,
		"run the throttled+unthrottled repair arms of the E26 self-healing run (false = detect-only baseline)")
	metricsAddr = flag.String("metrics-addr", "",
		"serve a Prometheus-text /metrics endpoint on host:port for the duration of the run")
	metricsHold = flag.Duration("metrics-hold", 0,
		"keep the /metrics endpoint up this long after the experiments finish")
	metricsJSON = flag.String("metrics-json", "",
		"write periodic JSON registry snapshots to FILE while experiments run")
	metricsInterval = flag.Duration("metrics-interval", 2*time.Second,
		"period between -metrics-json snapshots")
)

// serveReg is the live fleet registry behind -metrics-addr and
// -metrics-json; nil when neither flag is set (telemetry off, zero
// cost). E25 mirrors its accuracy arm's headline series onto it so a
// scrape during the run watches the fleet move.
var serveReg *metrics.Registry

// serveMetrics exposes the registry as a Prometheus text endpoint at
// /metrics, returning the bound address (useful with :0).
func serveMetrics(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := serveReg.WritePrometheus(w, time.Now()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		srv := &http.Server{Handler: mux}
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// snapshotLoop rewrites path with a fresh JSON registry snapshot every
// interval until stop is closed, then writes one final snapshot.
func snapshotLoop(path string, interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	write := func() {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			return
		}
		if err := serveReg.WriteJSON(f, time.Now()); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
		}
		f.Close()
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			write()
		case <-stop:
			write()
			return
		}
	}
}

// intList parses a comma-separated list of positive integers; empty
// means nil, the experiment's default.
func intList(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -%s entry %q", flagName, f)
		}
		out = append(out, n)
	}
	return out, nil
}

// options translates the command-line flags into the experiments'
// options.
func options() (experiments.Options, error) {
	opts := experiments.Options{
		E21: experiments.E21Options{Deadline: *deadline},
		E24: experiments.E24Options{NoHedge: !*hedgeFlag},
		E25: experiments.E25Options{Registry: serveReg},
		E26: experiments.E26Options{NoHeal: !*scrubFlag},
	}
	var err error
	if opts.E21.OfferedLoads, err = intList("offered-load", *offeredLoad); err != nil {
		return opts, err
	}
	opts.Workers, err = intList("workers", *workersFlag)
	return opts, err
}

// jsonEntry is one experiment's slice of the -json perf artifact. All
// of an experiment's numbers, run-wide counters included, are in its
// Metrics (see experiments.Table).
type jsonEntry struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func writeTraceFile(path string, rows int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.WriteOverlapTrace(f, rows)
}

func writeJSONFile(path string, rows int, workers []int, entries []jsonEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Rows    int         `json:"rows"`
		Workers []int       `json:"workers,omitempty"`
		Results []jsonEntry `json:"results"`
	}{Rows: rows, Workers: workers, Results: entries})
}

func main() {
	rows := flag.Int("rows", 50000, "workload size (rows)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	tracePath := flag.String("trace", "", "write a Perfetto trace of the E20 run to FILE")
	jsonPath := flag.String("json", "", "write executed experiments' metrics to FILE (e.g. BENCH_results.json)")
	flag.Parse()

	if *list {
		for _, e := range experiments.Catalogue {
			mark := ""
			if e.WallClock {
				mark = "  [wall-clock]"
			}
			fmt.Printf("%-4s %s%s\n", e.ID, e.Desc, mark)
		}
		return
	}
	if *metricsAddr != "" || *metricsJSON != "" {
		serveReg = metrics.New()
	}
	opts, err := options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *metricsAddr != "" {
		bound, err := serveMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving metrics on http://%s/metrics\n", bound)
	}
	var snapStop chan struct{}
	var snapDone chan struct{}
	if *metricsJSON != "" {
		snapStop, snapDone = make(chan struct{}), make(chan struct{})
		go snapshotLoop(*metricsJSON, *metricsInterval, snapStop, snapDone)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	failed := false
	var entries []jsonEntry
	for _, e := range experiments.Catalogue {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t, err := e.Run(*rows, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Println(t.String())
		entries = append(entries, jsonEntry{ID: t.ID, Title: t.Title, Metrics: t.Metrics})
	}
	if *tracePath != "" {
		if err := writeTraceFile(*tracePath, *rows); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			failed = true
		} else {
			fmt.Printf("wrote Perfetto trace to %s\n", *tracePath)
		}
	}
	if *jsonPath != "" {
		sweep := opts.Workers
		if sweep == nil && (len(want) == 0 || want["E22"]) {
			sweep = experiments.DefaultWorkers
		}
		if err := writeJSONFile(*jsonPath, *rows, sweep, entries); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			failed = true
		} else {
			fmt.Printf("wrote metrics to %s\n", *jsonPath)
		}
	}
	if *metricsAddr != "" && *metricsHold > 0 {
		fmt.Printf("holding /metrics for %v\n", *metricsHold)
		time.Sleep(*metricsHold)
	}
	if snapStop != nil {
		close(snapStop)
		<-snapDone
		fmt.Printf("wrote metrics snapshots to %s\n", *metricsJSON)
	}
	if failed {
		os.Exit(1)
	}
}
