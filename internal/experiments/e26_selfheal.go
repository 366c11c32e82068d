package experiments

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs/metrics"
	"repro/internal/plan"
	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E26Row is one arm of the self-healing comparison.
type E26Row struct {
	Arm     string        `col:"repair"`  // "off", "throttled", "unthrottled"
	Queries int           `col:"queries"` // recorded foreground queries
	P50     time.Duration `col:"p50,us"`
	P95     time.Duration `col:"p95,us"`
	P99     time.Duration `col:"p99,us"`
	// P99x is this arm's p99 over the no-repair arm's p99; 1 for the
	// no-repair arm itself.
	P99x float64 `col:"p99 x"`
	// Heals is the blobs the arm healed by read-repair, by the scrubber
	// and by re-replication.
	Heals         slash         `col:"rr/scrub/reclone"`
	RepairBytes   sim.Bytes     `col:"repaired"`
	MTTR          time.Duration `col:"mttr,-ms"`  // completed re-replication, loss to restore
	AtRiskEnd     int           `col:"at-risk"`   // under-replicated objects when the arm finished
	CorruptSteady int64         `col:"corrupt/q"` // corrupt reads one post-window query still pays
}

// E26Options parameterizes the run; zero values take the defaults below
// (tests shrink sizes and windows to stay fast).
type E26Options struct {
	Trials      int           // minimum recorded queries per arm
	BaseLatency time.Duration // per-object-read device latency (real time)
	Workers     int           // morsel-scan worker pool width
	Segments    int           // target segment count for the table
	DamageEvery int           // every k-th segment gets one damaged replica
	Contention  float64       // store RepairContention (shared device queue)
	HealWindow  time.Duration // throttled arm's target full-heal duration
	DeadAfter   time.Duration // lost-replica deadline before re-replication
	Streams     int           // unthrottled arm's re-clone stream count
	BurnMax     float64       // SLO burn-rate ceiling for throttled repair
	NoHeal      bool          // run only the no-repair arm (dfbench -scrub=false)
}

// e26Seed fixes the damage schedule (which segments, which replica) so
// runs are reproducible; dfbench -json emits it with the repair
// counters.
const e26Seed = 0xE26

// E26SelfHeal measures what self-healing storage costs the foreground
// and what it buys durability. Every arm starts from the same wounded
// store: one replica of every DamageEvery-th segment carries latent
// bit-rot (alternating between the replica queries read first and the
// one only the scrubber visits), and a whole replica's device dies at
// t=0. The "off" arm detects and routes around the damage but never
// heals — every query re-pays the fallback tax and the store stays
// under-replicated forever. The "throttled" arm runs the repair
// controller paced to heal within HealWindow, under the SLO burn gate.
// The "unthrottled" arm lets the same controller run a repair storm (unpaced scrub and
// re-clone, Streams concurrent copies) through the same shared device
// queues. Foreground queries run continuously while each arm heals;
// latencies are wall-clock. The claims checked: rows stay bit-identical
// in every arm and trial; both repair arms drive replicas-at-risk to
// zero with a bounded, reported MTTR and pay zero retry overhead after
// the heal; and only the throttled arm keeps foreground p99 near the
// no-repair baseline while it does so.
func E26SelfHeal(rows int, opts E26Options) (*Result[E26Row], error) {
	if opts.Trials <= 0 {
		opts.Trials = 12
	}
	if opts.BaseLatency <= 0 {
		opts.BaseLatency = 300 * time.Microsecond
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Segments <= 0 {
		opts.Segments = 24
	}
	if opts.DamageEvery <= 0 {
		opts.DamageEvery = 3
	}
	if opts.Contention <= 0 {
		opts.Contention = 1.5
	}
	if opts.HealWindow <= 0 {
		opts.HealWindow = 800 * time.Millisecond
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 50 * time.Millisecond
	}
	if opts.Streams <= 0 {
		opts.Streams = 6
	}
	if opts.BurnMax <= 0 {
		opts.BurnMax = 2
	}

	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.1)).
		WithProjection(workload.LExtendedPrice)
	segRows := rows/opts.Segments + 1

	res := newResult[E26Row]("E26",
		"Self-healing storage: foreground tail during scrub + re-replication vs never healing",
		"all arms start with latent damage on every "+fmt.Sprint(opts.DamageEvery)+
			"rd segment and one replica dead; "+
			"p99 x = arm p99 over the no-repair arm's; rr/scrub/reclone = blobs healed by "+
			"read-repair / scrubber / re-replication; at-risk = under-replicated objects at "+
			"the end; corrupt/q = corrupt reads one more query still pays (the unrepaired "+
			"fallback tax)")
	res.Table.SetMetric("faultSeed", e26Seed)

	arms := []string{"off", "throttled", "unthrottled"}
	if opts.NoHeal {
		arms = arms[:1]
	}
	var expected map[string]int
	var baseP99 time.Duration
	for _, arm := range arms {
		row, hist, err := e26RunArm(arm, data, q, segRows, opts)
		if err != nil {
			return nil, err
		}
		if expected == nil {
			expected = hist
		} else if !maps.Equal(hist, expected) {
			return nil, fmt.Errorf("experiments: E26 arm %s returned wrong rows", arm)
		}
		if arm == "off" {
			baseP99 = row.P99
			row.P99x = 1
		} else if baseP99 > 0 && row.P99 > 0 {
			row.P99x = float64(row.P99) / float64(baseP99)
		}
		res.put(*row)
		res.Table.SetMetric("p99_us@"+arm, float64(row.P99)/float64(time.Microsecond))
		res.Table.SetMetric("p99x@"+arm, row.P99x)
		res.Table.SetMetric("at_risk_end@"+arm, float64(row.AtRiskEnd))
		if row.MTTR > 0 {
			res.Table.SetMetric("mttr_ms@"+arm, float64(row.MTTR)/float64(time.Millisecond))
		}
		// Totals over the arms; emitted even when no arm repaired.
		res.Table.AddMetric("readRepairs", float64(row.Heals[0]))
		res.Table.AddMetric("scrubRepairs", float64(row.Heals[1]))
		res.Table.AddMetric("recloned", float64(row.Heals[2]))
		res.Table.AddMetric("repairBytes", float64(row.RepairBytes))
	}
	return res, nil
}

// e26RunArm wounds a fresh engine's store and runs one arm's heal (or
// deliberate lack of one) under continuous foreground queries, returning
// the arm's row and the result histogram every trial reproduced.
func e26RunArm(arm string, data *columnar.Batch, q *plan.Query, segRows int, opts E26Options) (*E26Row, map[string]int, error) {
	df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Workers = opts.Workers
	store := df.Storage.Store()
	store.SetReplicas(3)
	store.BaseLatency = opts.BaseLatency
	store.RetryBase = 0
	// The shared device queue: in-flight repair I/O stretches foreground
	// reads in every arm; only the repair arms create any.
	store.RepairContention = opts.Contention
	df.Storage.SegmentRows = segRows
	if err := loadDataFlow(df, "lineitem", data); err != nil {
		return nil, nil, err
	}

	ctx := context.Background()
	row := &E26Row{Arm: arm, Heals: slash{0, 0, 0}}

	var ctrl *repair.Controller
	switch arm {
	case "off":
		// Detection and route-around without the heal: the PR-1 world.
		df.Storage.EnableVerify(false)
	case "throttled":
		// Pace scrub reads and repair copies so one full heal of the
		// store fits in HealWindow, and pause outright while the SLO burn
		// rate says the foreground is already losing its tail.
		var storeBytes int64
		for _, key := range store.List("") {
			storeBytes += int64(store.Size(key)) * int64(store.ReplicaCount(key))
		}
		rate := float64(storeBytes) / opts.HealWindow.Seconds()
		df.SetSLO(metrics.NewSLOTracker(time.Second, 0.99), 0)
		ctrl = df.EnableRepair(repair.Config{
			ScrubRate:  rate,
			RepairRate: rate,
			BurnMax:    opts.BurnMax,
			DeadAfter:  opts.DeadAfter,
			Interval:   5 * time.Millisecond,
			Streams:    1,
		})
	case "unthrottled":
		// The repair storm: unpaced scrub, Streams concurrent re-clone
		// copies, no SLO coordination.
		ctrl = df.EnableRepair(repair.Config{
			DeadAfter: opts.DeadAfter,
			Interval:  time.Millisecond,
			Streams:   opts.Streams,
		})
	default:
		return nil, nil, fmt.Errorf("experiments: E26 unknown arm %q", arm)
	}

	// Warm up on the healthy store (health tracker, allocator, caches),
	// then wound it: latent damage alternating between replica 0 (the
	// one queries read first — read-repair's work) and replica 1 (the
	// one only the scrubber visits), plus a whole dead replica. A flip
	// can land in framing bytes the column checksums do not cover, so
	// count only the detectable damage.
	warm, err := df.Execute(ctx, q)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: E26 %s warmup: %w", arm, err)
	}
	hist := e19Histogram(warm)

	keys := store.List("lineitem/")
	detectable := 0
	for i, key := range keys {
		if i%opts.DamageEvery != 0 {
			continue
		}
		r := ((i / opts.DamageEvery) ^ e26Seed) % 2
		if !store.CorruptReplica(key, r) {
			return nil, nil, fmt.Errorf("experiments: E26 could not damage %s", key)
		}
		raw, err := store.ReadReplicaRaw(ctx, key, r)
		if err != nil {
			return nil, nil, err
		}
		if storage.VerifySegmentBlob(raw) != nil {
			detectable++
		}
	}
	lost := store.FailReplica(2)
	wantHeals := int64(detectable + lost)

	runCtx, stopRun := context.WithCancel(ctx)
	runDone := make(chan struct{})
	if ctrl != nil {
		go func() {
			defer close(runDone)
			ctrl.Run(runCtx)
		}()
	} else {
		close(runDone)
	}

	// Foreground: query continuously until the arm has both its minimum
	// trial count and (for the repair arms) a completed heal, so the
	// percentiles cover the whole heal window.
	healed := func() bool {
		if ctrl == nil {
			return true
		}
		if objects, _ := store.UnderReplicated(); objects != 0 {
			return false
		}
		return store.Totals().ReadRepairs >= wantHeals
	}
	var lats []time.Duration
	hardStop := df.Clock.Now().Add(30 * time.Second)
	for len(lats) < opts.Trials || !healed() {
		if df.Clock.Now().After(hardStop) {
			stopRun()
			<-runDone
			return nil, nil, fmt.Errorf("experiments: E26 %s heal never completed (%d/%d heals, at-risk %d)",
				arm, store.Totals().ReadRepairs, wantHeals, mustObjects(store))
		}
		start := df.Clock.Now()
		r, err := df.Execute(ctx, q)
		if err != nil {
			stopRun()
			<-runDone
			return nil, nil, fmt.Errorf("experiments: E26 %s query %d: %w", arm, len(lats), err)
		}
		lats = append(lats, df.Clock.Since(start))
		if !maps.Equal(e19Histogram(r), hist) {
			stopRun()
			<-runDone
			return nil, nil, fmt.Errorf("experiments: E26 %s query %d returned wrong rows", arm, len(lats))
		}
	}
	stopRun()
	<-runDone

	// One more query after the window: a healed store pays zero retry
	// overhead; the no-repair arm keeps paying the fallback tax forever.
	after, err := df.Execute(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	if !maps.Equal(e19Histogram(after), hist) {
		return nil, nil, fmt.Errorf("experiments: E26 %s post-heal query returned wrong rows", arm)
	}
	row.CorruptSteady = after.Stats.Scan.CorruptReads
	if ctrl != nil {
		if row.CorruptSteady != 0 || after.Stats.Scan.ReadRepairs != 0 {
			return nil, nil, fmt.Errorf("experiments: E26 %s still pays repair overhead after the heal: %d corrupt reads, %d read-repairs",
				arm, row.CorruptSteady, after.Stats.Scan.ReadRepairs)
		}
		// And the store really is clean: a full scrub finds no work.
		sum := ctrl.ScrubPass(ctx)
		if sum.Corrupt != 0 || sum.Lost != 0 || sum.Healed != 0 {
			return nil, nil, fmt.Errorf("experiments: E26 %s post-heal scrub found work: %+v", arm, sum)
		}
		rep := ctrl.Stats()
		row.Heals = slash{rep.ReadRepairs, rep.ScrubRepairs, rep.Recloned}
		row.MTTR = rep.LastMTTR
		if rep.Unrecoverable != 0 {
			return nil, nil, fmt.Errorf("experiments: E26 %s lost data: %d unrecoverable blobs", arm, rep.Unrecoverable)
		}
		// Each heal is counted once, by whoever wrote it.
		if wrote := store.Totals().ReadRepairs; rep.ReadRepairs+rep.ScrubRepairs+rep.Recloned != wrote {
			return nil, nil, fmt.Errorf("experiments: E26 %s counted %d+%d+%d heals, the store wrote %d", arm, rep.ReadRepairs, rep.ScrubRepairs, rep.Recloned, wrote)
		}
	}
	row.RepairBytes = store.Totals().RepairBytes
	row.AtRiskEnd = mustObjects(store)
	row.Queries = len(lats)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	row.P50 = quantile(lats, 0.50)
	row.P95 = quantile(lats, 0.95)
	row.P99 = quantile(lats, 0.99)
	return row, hist, nil
}

// mustObjects reads the store's under-replicated object count.
func mustObjects(store *storage.ObjectStore) int {
	objects, _ := store.UnderReplicated()
	return objects
}
