package experiments

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E24Row is one (severity, arm) cell of the tail-latency sweep.
type E24Row struct {
	Severity float64
	Hedge    bool // gray-failure defenses enabled for this arm
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	// Scan sums the cell's trials: the logical (winner-only) media
	// payload, the speculation the scans did and their account at the
	// object store (hedges, budget denials).
	Scan         storage.ScanStats
	BreakerTrips int64
	// Speedup99 is the baseline arm's p99 over this arm's p99 at the
	// same severity; 1 for the baseline itself.
	Speedup99 float64
}

// ExtraBytes is the duplicate media payload the defenses read: hedge
// copies plus losing speculative morsels.
func (r E24Row) ExtraBytes() sim.Bytes { return r.Scan.HedgeBytes + r.Scan.SpeculativeBytes }

// E24Options parameterizes the sweep; zero values take the defaults
// below (tests shrink trials and latency to stay fast).
type E24Options struct {
	Severities  []float64     // DegradedDevice latency multipliers; 1 = healthy
	Trials      int           // queries per cell
	BaseLatency time.Duration // per-object-read device latency (real time)
	Workers     int           // morsel-scan worker pool width
	Segments    int           // target segment count for the table
	NoHedge     bool          // run only the baseline arm (dfbench -hedge=false)
}

// e24Seed fixes the fault schedule so magnitudes are reproducible.
const e24Seed = 0xE24

// E24TailLatency measures tail latency under gray failure: one of the
// two storage replicas serves every read Severity times slower than
// healthy (an injected DegradedDevice fault — the device still answers,
// correctly, so nothing errors and nothing fails over), and the network
// hop carries deterministic jitter. The same query then runs with the
// engine's defenses disabled (baseline: every read waits out the slow
// replica) and enabled (health-ranked replica order, hedged reads,
// speculative morsel re-execution, all spending from one retry budget).
// Latencies are wall-clock — injected slowness sleeps real time — so
// p50/p95/p99 report what a client would see. The defenses must buy
// their tail back honestly: every cell's result rows are checked
// against the healthy baseline's, and the duplicate bytes hedges and
// speculation burned are reported next to the win.
func E24TailLatency(rows int, opts E24Options) (*Result[E24Row], error) {
	if len(opts.Severities) == 0 {
		opts.Severities = []float64{1, 4, 16}
	}
	if opts.Trials <= 0 {
		opts.Trials = 8
	}
	if opts.BaseLatency <= 0 {
		// Above the coarsest common timer quantum (~1ms tick kernels),
		// so the injected severity multiplier dominates sleep rounding.
		opts.BaseLatency = 500 * time.Microsecond
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Segments <= 0 {
		opts.Segments = 24
	}

	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.1)).
		WithProjection(workload.LExtendedPrice)
	segRows := rows/opts.Segments + 1

	build := func(severity float64, hedge bool) (*core.DataFlowEngine, error) {
		df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		df.Workers = opts.Workers
		store := df.Storage.Store()
		store.SetReplicas(2)
		store.BaseLatency = opts.BaseLatency
		df.Storage.SegmentRows = segRows
		if err := loadDataFlow(df, "lineitem", data); err != nil {
			return nil, err
		}
		inj := faults.New(e24Seed)
		// Prob 1 draws no randomness: magnitudes are deterministic no
		// matter how goroutines interleave the reads.
		if severity > 1 {
			inj.Arm(faults.Point{Kind: faults.DegradedDevice,
				Target: "store/r0", Prob: 1, Severity: severity})
		}
		inj.Arm(faults.Point{Kind: faults.JitterLink, Prob: 1, Severity: 0.25})
		df.Faults = inj
		if hedge {
			df.EnableResilience(resilience.NewPolicy())
		}
		return df, nil
	}

	res := &Result[E24Row]{Table: &Table{
		ID:    "E24",
		Title: "Tail latency under gray failure: hedged reads + speculation vs waiting out the straggler",
		Header: []string{"severity", "hedge", "p50", "p95", "p99",
			"hedged", "speculated", "extra bytes", "p99 x"},
		Notes: "severity = injected latency multiplier on storage replica 0 (1 = healthy); " +
			"latencies are wall-clock; hedged/speculated = launched/won; " +
			"extra bytes = duplicate media reads the defenses burned; " +
			"p99 x = baseline p99 over hedged p99 at the same severity",
	}}
	// Defense totals over the hedged arms, for the -json artifact.
	var total E24Row

	arms := []bool{false, true}
	if opts.NoHedge {
		arms = []bool{false}
	}
	var expected map[string]int
	baseP99 := make(map[float64]time.Duration)
	for _, severity := range opts.Severities {
		for _, hedge := range arms {
			df, err := build(severity, hedge)
			if err != nil {
				return nil, err
			}
			row := E24Row{Severity: severity, Hedge: hedge}
			lats := make([]time.Duration, 0, opts.Trials)
			// Trial -1 is a warmup whose latency is not recorded:
			// production tails are measured with the health tracker warm,
			// not on the very first request after a deploy. Correctness is
			// still checked, and its defense counters still count — the
			// cold tracker's first slow reads are where hedging is certain
			// to fire; once it has learned, ranking alone may absorb the
			// slow replica.
			for trial := -1; trial < opts.Trials; trial++ {
				start := df.Clock.Now()
				r, err := df.Execute(context.Background(), q)
				if err != nil {
					return nil, fmt.Errorf("experiments: E24 severity %g hedge=%v trial %d: %w",
						severity, hedge, trial, err)
				}
				elapsed := df.Clock.Since(start)
				h := e19Histogram(r)
				if expected == nil {
					expected = h
				} else if !maps.Equal(h, expected) {
					return nil, fmt.Errorf("experiments: E24 severity %g hedge=%v returned wrong rows",
						severity, hedge)
				}
				if trial >= 0 {
					lats = append(lats, elapsed)
				}
				row.Scan.Add(r.Stats.Scan)
				row.BreakerTrips += r.Stats.BreakerTrips
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			row.P50 = quantile(lats, 0.50)
			row.P95 = quantile(lats, 0.95)
			row.P99 = quantile(lats, 0.99)
			if !hedge {
				baseP99[severity] = row.P99
				row.Speedup99 = 1
			} else if base := baseP99[severity]; base > 0 && row.P99 > 0 {
				row.Speedup99 = float64(base) / float64(row.P99)
			}

			armName := "off"
			if hedge {
				armName = "on"
			}
			speedup := "-"
			if hedge && row.Speedup99 > 0 {
				speedup = f(row.Speedup99)
			}
			res.add(row, f(severity), armName,
				row.P50.Round(time.Microsecond).String(),
				row.P95.Round(time.Microsecond).String(),
				row.P99.Round(time.Microsecond).String(),
				fmt.Sprintf("%d/%d", row.Scan.HedgedReads, row.Scan.HedgeWins),
				fmt.Sprintf("%d/%d", row.Scan.SpeculativeMorsels, row.Scan.SpeculativeWins),
				row.ExtraBytes().String(), speedup)
			res.Table.SetMetric(fmt.Sprintf("p99_%s@%g", armName, severity),
				float64(row.P99)/float64(time.Microsecond))
			if hedge {
				res.Table.SetMetric(fmt.Sprintf("speedup99@%g", severity), row.Speedup99)
				if severity <= 1 && row.Scan.MediaBytes > 0 {
					res.Table.SetMetric("extra_bytes_pct@healthy",
						100*float64(row.ExtraBytes())/float64(row.Scan.MediaBytes))
				}
				total.Scan.Add(row.Scan)
				total.BreakerTrips += row.BreakerTrips
			}
		}
	}
	// Emitted whatever the arms did — a zero is a result, and dropping
	// keys under -hedge=false would make the artifact's schema depend on
	// flags.
	total.Scan.ReadStats.Each(func(name string, v int64) { res.Table.SetMetric(name, float64(v)) })
	res.Table.SetMetric("speculativeMorsels", float64(total.Scan.SpeculativeMorsels))
	// One key, counted once: Each wrote the store account's share of the
	// trips under this name; the queries' totals (ExecStats.BreakerTrips,
	// which holds that share plus the engine's own breakers) replace it.
	res.Table.SetMetric("breakerTrips", float64(total.BreakerTrips))
	res.Table.SetMetric("faultSeed", e24Seed)
	return res, nil
}
