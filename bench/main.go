// Command bench is the repository's benchmark of record: five workloads,
// ten end-to-end metrics measured with tracing off, and per-layer
// metrics from a separate traced pass in which every layer is timed from
// outside, through its exported functions. See README.md.
//
//	cd bench && go run . [-workload NAME|all] [-seed N] [-seconds S] [-out FILE] [-repeat N]
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

const (
	traceOff  = "0"    // measured phase only: the end-to-end metrics
	traceOn   = "1"    // a short measured phase, then the traced pass: the per-layer metrics
	traceBoth = "both" // the full measured phase, then the traced pass
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.String("trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics only; both")
	out := fs.String("out", "out/bench.json", "file the results are written to; traces go beside it")
	repeat := fs.Int("repeat", 1, "run every workload this many times, in alternating order, and compare the runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != traceOff && *trace != traceOn && *trace != traceBoth || *seconds <= 0 || *repeat < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	var names []string
	for _, def := range workloadDefs {
		if *name == "all" || *name == def.name {
			names = append(names, def.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	runtime.GOMAXPROCS(2)
	cfg := config{seed: *seed, rows: lineitemRows, seconds: *seconds, warmup: 2, setupReps: 5}
	cfg.traced = math.Min(6, 0.6**seconds)
	if *trace == traceOn {
		// One run has --seconds in all: most of it goes to the traced pass.
		cfg.seconds = 0.4 * *seconds
		cfg.setupReps = 1
	}
	if *repeat > 1 {
		*trace = traceOff
	}
	printHeader(stdout, cfg)

	outDir := filepath.Dir(*out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(names) == 1 && *repeat == 1 {
		res := runWorkload(cfg, names[0], *trace)
		res.print(stdout)
		if res.tracer != nil {
			if err := res.tracer.write(filepath.Join(outDir, "trace-"+names[0]+".json"), names[0], cfg.seed); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if err := writeReport(*out, cfg, []*result{res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		// The last line of a single-workload run is its result as one
		// JSON object.
		fmt.Fprintln(stdout, res.contractLine())
		if !res.correct() {
			return 1
		}
		return 0
	}

	// Several runs: each in a process of its own, so that none starts in
	// the heap, the resident set or the GC pacing the one before left, and
	// every number is the number a single-workload run reports.
	ok := true
	rounds := make([][]*result, *repeat)
	for r := range rounds {
		order := names
		if r%2 == 1 { // alternate the order so drift does not favour one round
			order = slices.Clone(names)
			slices.Reverse(order)
		}
		for _, n := range order {
			tmp := filepath.Join(outDir, "run-"+n+".json")
			res := runChild(stdout, stderr, tmp, "-workload", n, "-seed", fmt.Sprint(*seed),
				"-seconds", fmt.Sprint(*seconds), "-trace", *trace, "-out", tmp)
			ok = ok && res.correct()
			rounds[r] = append(rounds[r], res)
		}
	}
	if *repeat > 1 {
		ok = compareRounds(stdout, rounds, names) && ok
	}
	if err := writeReport(*out, cfg, rounds[len(rounds)-1]); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild runs this program again with args, copies what it prints
// (less its header and its one-line result) to stdout, and returns the
// result it wrote to reportPath.
func runChild(stdout, stderr io.Writer, reportPath string, args ...string) *result {
	r := &result{workload: args[1]}
	self, err := os.Executable()
	if err != nil {
		return r.fail(err)
	}
	os.Remove(reportPath) // a report left by an earlier run is not this run's
	var printed bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &printed, stderr
	runErr := cmd.Run() // a run with failed ops exits 1 and still reports
	for _, line := range strings.SplitAfter(printed.String(), "\n") {
		if !strings.HasPrefix(line, "bench:") && !strings.HasPrefix(line, "{") {
			io.WriteString(stdout, line)
		}
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		if runErr != nil {
			err = runErr
		}
		return r.fail(err)
	}
	os.Remove(reportPath)
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Workloads) != 1 {
		return r.fail(fmt.Errorf("bench: unreadable report %s: %v", reportPath, err))
	}
	return rep.Workloads[0].result()
}

// result is one workload's run.
type result struct {
	workload, trace   string
	attempted, failed int
	err               error // first failed op, or what stopped the run
	endToEnd, layer   map[string]float64
	samples           int // ops behind wall_p05_ms
	blockP50, calibMs []float64
	spreadPct         float64 // engine.block_spread_pct of the measured phase
	tracer            *tracer
	tracedOps         int
}

func (r *result) correct() bool { return r.err == nil && r.failed == 0 }

func (r *result) fail(err error) *result {
	if r.err == nil {
		r.err = err
	}
	return r
}

// runWorkload sets up, warms up, measures and (unless trace is "0")
// traces one workload.
func runWorkload(cfg config, name, trace string) *result {
	r := &result{workload: name, trace: trace}
	var fx *fixture
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		fx = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if fx, err = setup(cfg); err != nil {
			return r.fail(err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	w, d, err := fx.workload(name)
	if err != nil {
		return r.fail(err)
	}
	fx.dropRaw()
	debug.FreeOSMemory() // start from the live set, not from set-up's garbage

	var warm, p phase
	warm.run(d, cfg.warmup, cfg.maxOps, 1)
	p.run(d, cfg.seconds, cfg.maxOps, checkEvery)
	r.attempted = warm.ops + p.ops
	r.failed = warm.failed + p.failed
	r.samples = len(p.lat)
	r.blockP50, r.calibMs = p.blockMedians(), durationsMs(p.calib)
	engine := p.engineLayer(w)
	r.spreadPct = engine["engine.block_spread_pct"]
	if warm.firstErr != nil {
		r.fail(warm.firstErr)
	}
	if p.firstErr != nil {
		r.fail(p.firstErr)
	}
	stored, err := d.storedBytesPerRow()
	if err != nil {
		return r.fail(err)
	}
	if r.endToEnd, err = p.endToEnd(w, slices.Min(setups), stored); err != nil {
		return r.fail(err)
	}
	if trace == traceOff {
		return r
	}

	if err := d.prepareTrace(); err != nil {
		return r.fail(err)
	}
	measuredMean := p.meanMs()
	if w.table == tableIngest {
		measuredMean = 0 // the measured op is Load, the traced one its read-back
	}
	layer, lp, err := tracedPass(fx, w, time.Duration(cfg.traced*float64(time.Second)), measuredMean)
	r.attempted += lp.attempted
	r.failed += lp.failed
	if lp.firstMiss != nil {
		r.fail(lp.firstMiss)
	}
	if err != nil {
		return r.fail(err)
	}
	for k, v := range engine {
		layer[k] = v
	}
	r.layer, r.tracer, r.tracedOps = layer, lp.tr, lp.ops
	return r
}

func printHeader(w io.Writer, cfg config) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Fprintf(w, "bench: %s nproc=%d GOMAXPROCS=%d GOGC=%s seed=%d rows=%d commit=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, cfg.seed, cfg.rows, commit())
	fmt.Fprintf(w, "bench: one closed-loop client, engine Workers=1, %d set-ups, %.1fs warm-up, %.1fs measured in %d blocks, traced pass <= %.1fs\n",
		cfg.setupReps, cfg.warmup, cfg.seconds, blocks, cfg.traced)
}

// commit reads the checked-out commit from ../.git without running git;
// a checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile("../.git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join("../.git", name))
		if err != nil {
			return name
		}
		ref = strings.TrimSpace(string(data))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  ops=%d failed_ops=%d\n", r.workload, r.attempted, r.failed)
	if r.err != nil {
		fmt.Fprintf(w, "  ERROR: %v\n", r.err)
	}
	printMetrics(w, endToEndDefs, r.endToEnd, map[string]string{"wall_p05_ms": fmt.Sprintf("(n=%d)", r.samples)})
	fmt.Fprintf(w, "  block p50 (ms) %.4f, host calibration around them (ms) %.3f\n", r.blockP50, r.calibMs)
	if r.layer == nil {
		return
	}
	fmt.Fprintf(w, "  -- per layer, from %d traced ops --\n", r.tracedOps)
	printMetrics(w, perLayerDefs, r.layer, nil)
	fmt.Fprintln(w, "  -- self time per traced op, by layer --")
	layers, self := r.tracer.selfByLayer(r.tracedOps)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-36s %14.4f ms\n", l, self[l])
	}
}

func printMetrics(w io.Writer, defs []metricDef, values map[string]float64, notes map[string]string) {
	if values == nil {
		return
	}
	for _, def := range defs {
		fmt.Fprintf(w, "  %-36s %14.4f %-7s %s\n", def.name, values[def.name], def.unit, notes[def.name])
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func jsonMetrics(defs []metricDef, values map[string]float64) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(defs))
	for _, def := range defs {
		out[def.name] = jsonMetric{Value: values[def.name], Unit: def.unit}
	}
	return out
}

// contractLine is the one-line result of a single-workload run: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1,
// both otherwise.
func (r *result) contractLine() string {
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed}
	line.Metrics = map[string]jsonMetric{}
	if r.trace != traceOn && r.endToEnd != nil {
		line.Metrics = jsonMetrics(endToEndDefs, r.endToEnd)
	}
	if r.layer != nil {
		for k, v := range jsonMetrics(perLayerDefs, r.layer) {
			line.Metrics[k] = v
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // numbers and strings only
	}
	return string(data)
}

// report is what -out receives: every metric of every workload run.
type report struct {
	Go        string        `json:"go"`
	NumCPU    int           `json:"nproc"`
	Procs     int           `json:"gomaxprocs"`
	Seed      uint64        `json:"seed"`
	Rows      int           `json:"rows"`
	Seconds   float64       `json:"seconds"`
	Commit    string        `json:"commit"`
	Workloads []reportEntry `json:"workloads"`
}

type reportEntry struct {
	Name           string                `json:"name"`
	Correct        bool                  `json:"correct"`
	Attempted      int                   `json:"attempted"`
	Failed         int                   `json:"failed"`
	Error          string                `json:"error,omitempty"`
	BlockSpreadPct float64               `json:"block_spread_pct"`
	EndToEnd       map[string]jsonMetric `json:"end_to_end,omitempty"`
	PerLayer       map[string]jsonMetric `json:"per_layer,omitempty"`
}

func (r *result) entry() reportEntry {
	e := reportEntry{Name: r.workload, Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, BlockSpreadPct: r.spreadPct}
	if r.err != nil {
		e.Error = r.err.Error()
	}
	if r.endToEnd != nil {
		e.EndToEnd = jsonMetrics(endToEndDefs, r.endToEnd)
	}
	if r.layer != nil {
		e.PerLayer = jsonMetrics(perLayerDefs, r.layer)
	}
	return e
}

// result rebuilds what a child process measured from its report.
func (e reportEntry) result() *result {
	values := func(ms map[string]jsonMetric) map[string]float64 {
		if ms == nil {
			return nil
		}
		out := make(map[string]float64, len(ms))
		for k, m := range ms {
			out[k] = m.Value
		}
		return out
	}
	r := &result{workload: e.Name, attempted: e.Attempted, failed: e.Failed, spreadPct: e.BlockSpreadPct,
		endToEnd: values(e.EndToEnd), layer: values(e.PerLayer)}
	if e.Error != "" {
		r.err = errors.New(e.Error)
	} else if !e.Correct {
		r.err = errors.New("bench: run reported incorrect")
	}
	return r
}

func writeReport(path string, cfg config, round []*result) error {
	rep := report{runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.rows, cfg.seconds, commit(), nil}
	for _, r := range round {
		rep.Workloads = append(rep.Workloads, r.entry())
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareRounds is the same-code agreement check: every end-to-end
// metric of every workload must agree between the first and the last
// round within its bound, the simulator's statistics exactly. Where the
// drift inside a measured phase was itself wider than the bound, the
// comparison says "unresolved", not "unchanged".
func compareRounds(w io.Writer, rounds [][]*result, names []string) bool {
	find := func(round []*result, name string) *result {
		for _, r := range round {
			if r.workload == name {
				return r
			}
		}
		return nil
	}
	ok := true
	fmt.Fprintf(w, "\n== same-code agreement, round 1 vs round %d\n", len(rounds))
	fmt.Fprintf(w, "  %-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "last", "diff", "bound", "verdict")
	for _, n := range names {
		a, b := find(rounds[0], n), find(rounds[len(rounds)-1], n)
		if a.endToEnd == nil || b.endToEnd == nil {
			fmt.Fprintf(w, "  %-16s did not complete\n", n)
			ok = false
			continue
		}
		for _, def := range endToEndDefs {
			va, vb := a.endToEnd[def.name], b.endToEnd[def.name]
			diff := math.Abs(vb-va) / math.Abs(va)
			bound := def.bound
			if def.exact {
				bound = 0
			}
			verdict := "unchanged"
			switch {
			case diff > bound:
				verdict = "DIFFERS"
				ok = false
			case def.timed && math.Max(a.spreadPct, b.spreadPct) > 100*bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "  %-16s %-22s %14.4f %14.4f %8.2f%% %6.1f%%  %s\n", n, def.name, va, vb, 100*diff, 100*bound, verdict)
		}
	}
	return ok
}
