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
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/sim"
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
		if err := serveReg.WritePrometheus(w); err != nil {
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
		if err := serveReg.WriteJSON(f); err != nil {
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

// workerSweep translates -workers into E22's sweep; nil means the
// experiment default.
func workerSweep() ([]int, error) {
	if *workersFlag == "" {
		return nil, nil
	}
	var sweep []int
	for _, s := range strings.Split(*workersFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -workers entry %q", s)
		}
		sweep = append(sweep, n)
	}
	return sweep, nil
}

// e21Options translates the command-line flags into E21's knobs.
func e21Options() (experiments.E21Options, error) {
	opts := experiments.E21Options{Deadline: *deadline}
	if *offeredLoad != "" {
		for _, s := range strings.Split(*offeredLoad, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return opts, fmt.Errorf("bad -offered-load entry %q", s)
			}
			opts.OfferedLoads = append(opts.OfferedLoads, n)
		}
	}
	return opts, nil
}

type experiment struct {
	id   string
	desc string
	run  func(rows int) (*experiments.Table, error)
}

func registry() []experiment {
	return []experiment{
		{"E1", "conventional data path (Figure 1)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E1ConventionalPath(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E2", "storage pushdown (Figure 2)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E2StoragePushdown(rows, []float64{0.001, 0.01, 0.1, 0.5, 1.0})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E3", "NIC hashing pipeline (Figure 3)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E3NICHashPipeline(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E4", "staged pre-aggregation (Section 4.4)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E4StagedPreAgg(rows, []int64{10, 100, 10000, 1000000})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E5", "NIC-scattered partitioned join (Figure 4)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E5PartitionedJoin(rows/10+1, rows, 4)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E6", "COUNT on the data path (Section 4.4)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E6NICCount(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E7", "near-memory filtering (Figure 5)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E7NearMemoryFilter(rows, []float64{0.001, 0.01, 0.1, 0.5, 1.0}, false)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E7c", "near-memory filtering, compressed-resident (Section 5.4)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E7NearMemoryFilter(rows, []float64{0.01, 0.1, 0.5}, true)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E8", "pointer chasing, local memory (Section 5.4)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E8PointerChase([]int{1000, 100000, 1000000}, false)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E8r", "pointer chasing, disaggregated memory (Section 5.4)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E8PointerChase([]int{1000, 100000, 1000000}, true)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E9", "coherency protocols across interconnects (Section 6)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E9CXLCoherency(rows, 0.1)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E10", "full data-path pipeline (Figure 6)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E10FullPipeline(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E11", "credit-based flow control (Section 7.1)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E11CreditFlow(rows / 10)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E12", "interference-aware scheduling (Section 7.3)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E12Interference(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E13", "no more buffer pools (Section 7.4)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E13NoBufferPool([]int{rows / 4, rows / 2, rows}, 2*sim.MB)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E14", "no more data caches (Section 7.5)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E14NoDataCache(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E15", "kernel installation overhead (Section 7.2)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E15KernelSetup([]sim.Bytes{64 * sim.KB, sim.MB, 64 * sim.MB, sim.GB})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E16", "cache and TLB stalls (Section 5.1)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E16CacheStalls()
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E17", "disaggregated memory with operator offloading (Section 5.3)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E17DisaggregatedMemory(rows, []float64{0.001, 0.01, 0.1, 0.5, 1.0})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E18", "HTAP format transposition (Section 5.4)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E18HTAPTranspose([]int{rows / 4, rows, rows * 4})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E19", "availability under injected faults (robustness)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E19Availability(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E20", "staged pipeline overlap from virtual-time traces (Section 4)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E20StageOverlap(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E21", "query lifecycle: recovery waste and overload shedding (robustness)", func(rows int) (*experiments.Table, error) {
			opts, err := e21Options()
			if err != nil {
				return nil, err
			}
			r, err := experiments.E21Lifecycle(rows, opts)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E22", "morsel-driven intra-query parallelism: speedup vs workers", func(rows int) (*experiments.Table, error) {
			sweep, err := workerSweep()
			if err != nil {
				return nil, err
			}
			r, err := experiments.E22Parallelism(rows, sweep)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E23", "decode-cost elimination: encoded predicate eval vs eager decode", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E23EncodedEval(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E24", "tail latency under gray failure: hedged reads + speculation (robustness)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E24TailLatency(rows, experiments.E24Options{NoHedge: !*hedgeFlag})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E25", "fleet telemetry: overhead, histogram accuracy, SLO-led shedding (observability)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E25Telemetry(rows, experiments.E25Options{Registry: serveReg})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E26", "self-healing storage: scrub + read-repair + re-replication under SLO throttling (robustness)", func(rows int) (*experiments.Table, error) {
			r, err := experiments.E26SelfHeal(rows, experiments.E26Options{NoHeal: !*scrubFlag})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"A1", "ablation: wire compression vs network speed", func(rows int) (*experiments.Table, error) {
			r, err := experiments.A1WireCompression(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"A2", "ablation: NIC generation sweep", func(rows int) (*experiments.Table, error) {
			r, err := experiments.A2NICTierSweep(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"A3", "ablation: zone-map pruning vs segment size", func(rows int) (*experiments.Table, error) {
			r, err := experiments.A3SegmentSize(rows)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"A4", "ablation: pre-aggregation state budget", func(rows int) (*experiments.Table, error) {
			r, err := experiments.A4StateBudget(rows, int64(rows)/3)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"A5", "ablation: distributed group-by scale-out", func(rows int) (*experiments.Table, error) {
			r, err := experiments.A5ScaleOut(rows, []int{1, 2, 4, 8})
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
	}
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
	r, err := experiments.E20StageOverlap(rows)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return obs.WritePerfetto(f,
		obs.Process{Name: "dataflow", Trace: r.DataFlowTrace},
		obs.Process{Name: "volcano", Trace: r.VolcanoTrace})
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

	exps := registry()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.desc)
		}
		return
	}
	if *metricsAddr != "" || *metricsJSON != "" {
		serveReg = metrics.New()
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
	for _, e := range exps {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		t, err := e.run(*rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
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
		sweep, err := workerSweep()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if sweep == nil && (len(want) == 0 || want["E22"]) {
			sweep = experiments.E22Workers
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
