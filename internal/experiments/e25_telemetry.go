package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs/metrics"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E25Burst is one step of the SLO overload ramp: Size concurrent
// queries thrown at a 2-slot scheduler, with the error-budget burn rate
// read before and after and the admission outcomes counted.
type E25Burst struct {
	Size       int
	Admitted   int64
	Sheds      int64
	BurnBefore float64
	BurnAfter  float64
}

// E25Result carries the telemetry validation: instrumentation cost,
// histogram accuracy against exact per-query stats, attribution
// exactness, and the SLO-leads-shedding ramp.
type E25Result struct {
	*Table

	// OverheadPct is the wall-clock cost of full instrumentation:
	// (instrumented - uninstrumented) / uninstrumented, in percent,
	// compared at the lower-quartile walls of OverheadTrials x Reps
	// strictly interleaved per-query timings (timing noise is one-sided,
	// so the distribution floor is where the real cost shows).
	OverheadPct float64
	// BusyIdentical reports that both overhead arms metered exactly the
	// same virtual busy time — telemetry must observe the simulation,
	// never perturb it.
	BusyIdentical bool

	// QuantileErrPct maps p50/p95/p99 to the relative error (percent) of
	// the registry histogram against the exact nearest-rank quantile of
	// the per-query SimTime samples.
	QuantileErrPct map[string]float64
	// AttributionExact reports that per-tenant counter sums reproduce
	// the fleet totals exactly (queries, bytes, busy virtual time) and
	// that fleet bytes equal the sum of per-query charged bytes.
	AttributionExact bool

	// Bursts is the overload ramp; BurnCrossBurst and FirstShedBurst are
	// indexes into it (-1 = never): the burst after which the burn rate
	// first reached 1 (budget consumed as fast as promised) and the
	// burst in which the scheduler first shed. The SLO signal leads
	// shedding when BurnCrossBurst <= FirstShedBurst.
	Bursts         []E25Burst
	BurnCrossBurst int
	FirstShedBurst int
}

// E25Options parameterizes the run; zero values take the defaults below
// (tests shrink trial counts to stay fast).
type E25Options struct {
	OverheadTrials int // queries per timed repetition in the overhead arm
	Reps           int // timed repetitions per overhead arm (min wins)
	Trials         int // queries in the accuracy arm
	Workers        int // morsel-scan worker pool width
	Bursts         []int
	Tenants        []string
	// ShedBurn is the burn-rate threshold at which admission sheds;
	// it is deliberately above 1 so the burn signal visibly crosses the
	// budget line before the scheduler reacts.
	ShedBurn float64
	// Registry, when non-nil, receives the accuracy arm's metrics in
	// addition to the arm's private registry — dfbench passes its serving
	// registry here so a live scrape during the run sees the fleet move.
	Registry *metrics.Registry
}

// E25Telemetry validates the fleet telemetry end to end on three arms:
//
//   - Overhead: the same query stream runs on an uninstrumented engine
//     and on a fully instrumented one (registry + SLO tracker on the
//     engine, scheduler, storage, and flow layers). Both arms must meter
//     identical virtual busy time — telemetry observes, never perturbs —
//     and the wall-clock overhead is reported (budget: <= 2%).
//   - Accuracy: queries with varying selectivity and a rotating tenant
//     label run with metrics on; the registry's HDR histogram quantiles
//     are checked within 1% of the exact nearest-rank quantiles of the
//     recorded per-query stats, and per-tenant counter sums must equal
//     the fleet totals exactly (hedge/speculation duplicates are metered
//     separately, so nothing is double-charged).
//   - SLO control loop: a 2-slot scheduler takes bursts of concurrent
//     queries against a latency objective set from the measured healthy
//     median. Queue delay pushes wall latency over the objective, the
//     error-budget burn rate climbs, and once it crosses the shed
//     threshold admission starts refusing queries with ErrOverloaded.
//     The burn signal must cross 1 at a burst no later than the first
//     shed — the monitor leads the actuator, it does not trail it.
func E25Telemetry(rows int, opts E25Options) (*E25Result, error) {
	if opts.OverheadTrials <= 0 {
		opts.OverheadTrials = 48
	}
	if opts.Reps <= 0 {
		opts.Reps = 4
	}
	if opts.Trials <= 0 {
		opts.Trials = 48
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if len(opts.Bursts) == 0 {
		opts.Bursts = []int{2, 4, 8, 24, 48}
	}
	if len(opts.Tenants) == 0 {
		opts.Tenants = []string{"alpha", "beta", "gamma"}
	}
	if opts.ShedBurn <= 0 {
		opts.ShedBurn = 2
	}

	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	build := func(reg *metrics.Registry) (*core.DataFlowEngine, error) {
		df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		df.Workers = opts.Workers
		if err := loadDataFlow(df, "lineitem", data); err != nil {
			return nil, err
		}
		df.Metrics = reg
		return df, nil
	}
	query := func(sel float64) *plan.Query {
		return plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, sel)).
			WithProjection(workload.LExtendedPrice)
	}

	res := &E25Result{
		Table: &Table{
			ID:     "E25",
			Title:  "Fleet telemetry: overhead, histogram accuracy, attribution exactness, SLO-led shedding",
			Header: []string{"arm", "measure", "value"},
			Notes: "overhead = wall cost of full instrumentation (budget 2%); " +
				"quantile err = HDR histogram vs exact nearest-rank per-query stats (budget 1%); " +
				"attribution exact = per-tenant counter sums reproduce fleet totals; " +
				"burn/shed = burst index where the SLO burn rate crossed 1 vs where admission first shed",
		},
		QuantileErrPct: map[string]float64{},
		BurnCrossBurst: -1,
		FirstShedBurst: -1,
	}

	// --- Arm 1: instrumentation overhead -------------------------------
	qOver := query(0.1)
	runOne := func(df *core.DataFlowEngine) (time.Duration, sim.VTime, error) {
		start := df.Clock.Now()
		r, err := df.Execute(context.Background(), qOver)
		if err != nil {
			return 0, 0, fmt.Errorf("experiments: E25 overhead: %w", err)
		}
		return df.Clock.Since(start), r.Stats.SimTime, nil
	}
	dfOff, err := build(nil)
	if err != nil {
		return nil, err
	}
	regOn := metrics.New()
	dfOn, err := build(regOn)
	if err != nil {
		return nil, err
	}
	dfOn.SetSLO(metrics.NewSLOTracker(time.Second, 0.99), 0)
	// One unrecorded warmup per arm, then strictly interleaved per-query
	// timing: a GC pause or scheduler hiccup lands on one sample, not one
	// arm — block totals would charge it to whichever arm was running.
	// The arms are compared at their lower-quartile walls: timing noise is
	// one-sided (pauses only ever inflate a sample), so the clean floor of
	// each distribution is where the instrumentation cost actually shows.
	if _, _, err := runOne(dfOff); err != nil {
		return nil, err
	}
	if _, _, err := runOne(dfOn); err != nil {
		return nil, err
	}
	samples := opts.OverheadTrials * opts.Reps
	offWalls := make([]time.Duration, 0, samples)
	onWalls := make([]time.Duration, 0, samples)
	var busyOff, busyOn sim.VTime
	for i := 0; i < samples; i++ {
		busyOff, busyOn = 0, 0
		wOff, bOff, err := runOne(dfOff)
		if err != nil {
			return nil, err
		}
		wOn, bOn, err := runOne(dfOn)
		if err != nil {
			return nil, err
		}
		offWalls = append(offWalls, wOff)
		onWalls = append(onWalls, wOn)
		busyOff, busyOn = bOff, bOn
	}
	sort.Slice(offWalls, func(i, j int) bool { return offWalls[i] < offWalls[j] })
	sort.Slice(onWalls, func(i, j int) bool { return onWalls[i] < onWalls[j] })
	medOff := offWalls[len(offWalls)/4]
	medOn := onWalls[len(onWalls)/4]
	res.OverheadPct = 100 * (float64(medOn) - float64(medOff)) / float64(medOff)
	res.BusyIdentical = busyOff == busyOn

	// --- Arm 2: histogram accuracy + attribution exactness -------------
	regAcc := metrics.New()
	dfAcc, err := build(regAcc)
	if err != nil {
		return nil, err
	}
	selectivities := []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9}
	type perTenant struct{ queries, bytes, busy int64 }
	want := map[string]*perTenant{}
	var simTimes []int64
	var wantBytes, wantBusy, wantRows int64
	for trial := 0; trial < opts.Trials; trial++ {
		tenant := opts.Tenants[trial%len(opts.Tenants)]
		ctx := core.WithTenant(context.Background(), tenant)
		r, err := dfAcc.Execute(ctx, query(selectivities[trial%len(selectivities)]))
		if err != nil {
			return nil, fmt.Errorf("experiments: E25 accuracy trial %d: %w", trial, err)
		}
		st := r.Stats
		var busy sim.VTime
		for _, b := range st.DeviceBusy {
			busy += b
		}
		bytes := int64(st.MovedBytes + st.Scan.MediaBytes)
		pt := want[tenant]
		if pt == nil {
			pt = &perTenant{}
			want[tenant] = pt
		}
		pt.queries++
		pt.bytes += bytes
		pt.busy += int64(busy)
		wantBytes += bytes
		wantBusy += int64(busy)
		wantRows += st.ResultRows
		simTimes = append(simTimes, int64(st.SimTime))
		if opts.Registry != nil {
			// Mirror the headline series onto the caller's live registry.
			opts.Registry.Counter("fleet.queries").Inc()
			opts.Registry.Counter("fleet.bytes").Add(bytes)
			opts.Registry.Histogram("query.simtime.vns").Observe(int64(st.SimTime))
		}
	}
	sort.Slice(simTimes, func(i, j int) bool { return simTimes[i] < simTimes[j] })
	hist := regAcc.Histogram("query.simtime.vns")
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
		exact := quantile(simTimes, q.p)
		got := hist.Quantile(q.p)
		errPct := 0.0
		if exact != 0 {
			errPct = 100 * math.Abs(float64(got)-float64(exact)) / float64(exact)
		}
		res.QuantileErrPct[q.name] = errPct
	}
	var tenQ, tenB, tenBusy int64
	for t, pt := range want {
		tenQ += regAcc.Counter(metrics.Labels("tenant.queries", "tenant", t)).Value()
		tenB += regAcc.Counter(metrics.Labels("tenant.bytes", "tenant", t)).Value()
		tenBusy += regAcc.Counter(metrics.Labels("tenant.busy.vns", "tenant", t)).Value()
		if regAcc.Counter(metrics.Labels("tenant.queries", "tenant", t)).Value() != pt.queries {
			return nil, fmt.Errorf("experiments: E25: tenant %s query count drifted", t)
		}
	}
	res.AttributionExact = tenQ == regAcc.Counter("fleet.queries").Value() &&
		tenQ == int64(opts.Trials) &&
		tenB == regAcc.Counter("fleet.bytes").Value() &&
		tenB == wantBytes &&
		tenBusy == regAcc.Counter("fleet.busy.vns").Value() &&
		tenBusy == wantBusy &&
		regAcc.Counter("fleet.rows").Value() == wantRows

	// --- Arm 3: SLO burn rate leads shedding ---------------------------
	regSLO := metrics.New()
	dfSLO, err := build(regSLO)
	if err != nil {
		return nil, err
	}
	qBurst := query(0.1)
	// Measure the healthy median serially, then promise three times it:
	// generous when uncontended, hopeless once a 2-slot queue backs up.
	var healthy []time.Duration
	for i := 0; i < 5; i++ {
		start := dfSLO.Clock.Now()
		if _, err := dfSLO.Execute(context.Background(), qBurst); err != nil {
			return nil, fmt.Errorf("experiments: E25 SLO warmup: %w", err)
		}
		healthy = append(healthy, dfSLO.Clock.Since(start))
	}
	sort.Slice(healthy, func(i, j int) bool { return healthy[i] < healthy[j] })
	target := 3 * healthy[len(healthy)/2]
	slo := regSLO.SLO("slo.query.wall", target, 0.9)
	dfSLO.SetSLO(slo, opts.ShedBurn)
	dfSLO.Scheduler.MaxActive = 2
	dfSLO.Scheduler.QueueCap = 64

	for bi, size := range opts.Bursts {
		burst := E25Burst{Size: size, BurnBefore: slo.BurnRate(dfSLO.Clock.Now())}
		var admitted, sheds atomic.Int64
		var firstErr error
		var errMu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < size; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := dfSLO.Execute(context.Background(), qBurst)
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, sched.ErrOverloaded):
					sheds.Add(1)
				default:
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, fmt.Errorf("experiments: E25 burst %d: %w", size, firstErr)
		}
		burst.Admitted = admitted.Load()
		burst.Sheds = sheds.Load()
		burst.BurnAfter = slo.BurnRate(dfSLO.Clock.Now())
		res.Bursts = append(res.Bursts, burst)
		if res.BurnCrossBurst < 0 && burst.BurnAfter >= 1 {
			res.BurnCrossBurst = bi
		}
		if res.FirstShedBurst < 0 && burst.Sheds > 0 {
			res.FirstShedBurst = bi
		}
	}

	// --- Render --------------------------------------------------------
	t := res.Table
	t.AddRow("overhead", "lower-quartile wall off / on",
		fmt.Sprintf("%v / %v", medOff.Round(time.Microsecond), medOn.Round(time.Microsecond)))
	t.AddRow("overhead", "instrumentation cost", fmt.Sprintf("%.2f%%", res.OverheadPct))
	t.AddRow("overhead", "virtual busy identical", fmt.Sprintf("%v", res.BusyIdentical))
	for _, name := range []string{"p50", "p95", "p99"} {
		t.AddRow("accuracy", name+" err vs exact", fmt.Sprintf("%.3f%%", res.QuantileErrPct[name]))
	}
	t.AddRow("accuracy", "attribution exact", fmt.Sprintf("%v", res.AttributionExact))
	for _, b := range res.Bursts {
		t.AddRow("slo", fmt.Sprintf("burst %d", b.Size),
			fmt.Sprintf("admitted %d, shed %d, burn %.2f -> %.2f",
				b.Admitted, b.Sheds, b.BurnBefore, b.BurnAfter))
	}
	t.AddRow("slo", "burn crossed 1 at burst / first shed at burst",
		fmt.Sprintf("%s / %s", e25Idx(res.BurnCrossBurst), e25Idx(res.FirstShedBurst)))

	t.SetMetric("overhead_pct", res.OverheadPct)
	t.SetMetric("busy_identical", boolMetric(res.BusyIdentical))
	t.SetMetric("q50_err_pct", res.QuantileErrPct["p50"])
	t.SetMetric("q95_err_pct", res.QuantileErrPct["p95"])
	t.SetMetric("q99_err_pct", res.QuantileErrPct["p99"])
	t.SetMetric("attribution_exact", boolMetric(res.AttributionExact))
	t.SetMetric("burn_cross_burst", float64(res.BurnCrossBurst))
	t.SetMetric("first_shed_burst", float64(res.FirstShedBurst))
	var totalSheds int64
	for _, b := range res.Bursts {
		totalSheds += b.Sheds
	}
	t.SetMetric("sheds_total", float64(totalSheds))
	leads := res.BurnCrossBurst >= 0 &&
		(res.FirstShedBurst < 0 || res.BurnCrossBurst <= res.FirstShedBurst)
	t.SetMetric("slo_leads_shed", boolMetric(leads))
	return res, nil
}

// e25Idx renders a burst index, or "never".
func e25Idx(i int) string {
	if i < 0 {
		return "never"
	}
	return fmt.Sprintf("#%d", i)
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
