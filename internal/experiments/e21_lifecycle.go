package experiments

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E21Options tunes the lifecycle sweep; the zero value uses defaults.
type E21Options struct {
	// Deadline bounds every query in the overload sweep; shed decisions
	// and in-queue expiry are judged against it. Default 1s.
	Deadline time.Duration
	// OfferedLoads are the concurrent-arrival burst sizes of the
	// overload sweep. Default {1, 4, 16}.
	OfferedLoads []int
}

// E21RecoveryRow compares the waste of the three recovery disciplines
// for one mid-query fault position (the epoch the fault follows).
type E21RecoveryRow struct {
	StrikeAt     int       // checkpoint epoch the device dies after (e21StrikeDelay batches past its last)
	PartialWaste sim.Bytes // bytes replayed by the resume past epoch 0
	WholeWaste   sim.Bytes // bytes wasted by the resume at epoch 0 (checkpointing off)
	VolcanoWaste sim.Bytes // bytes wasted by client-level re-execution
	Restarts     int
	Failovers    int
	Checkpoints  int
	// PartialRecovery is everything the partial-restart run reports lost
	// (Stats.RecoveryBytes); the replayed bytes are a part of it.
	PartialRecovery sim.Bytes
	// SegmentsScanned is how many segments the partial-restart run
	// scanned over both attempts. A resume at epoch 0 scans all
	// e21Segments twice; resuming past segment 0 scans fewer.
	SegmentsScanned int
}

// E21OverloadRow is one offered-load point of the shedding sweep.
type E21OverloadRow struct {
	Offered int
	OK      int           // admitted and completed within the deadline
	Shed    int           // rejected fast with sched.ErrOverloaded
	Expired int           // admitted but killed by the deadline mid-run
	P99     time.Duration // highest wall-clock makespan among OK queries
	VoP99   time.Duration // worst-query latency with no admission control
}

// E21Result carries both halves of the lifecycle experiment.
type E21Result struct {
	*Table
	Recovery []E21RecoveryRow
	Overload []E21OverloadRow
	Deadline time.Duration
}

const e21Seed = 0xE21

// e21Segments is how many scan segments the recovery queries span; the
// fault positions and checkpoint cadence below are chosen against it.
const e21Segments = 12

// e21EpochSegments is the data-flow engine's checkpoint cadence: an epoch
// every 2 segments, so the recovery queries span 6 epochs.
const e21EpochSegments = 2

// e21Strikes are the epochs the recovery half's kills follow (early,
// middle, late); each kill lands e21StrikeDelay batches after its epoch's
// last batch at the struck stage, whatever a segment's batch count (one
// at 6,000 rows, two at 50,000, eleven at 524,288). By then the epoch's
// marker has passed the stage, and the stages after it, which see only
// markers and partials, have nearly always carried it to the sink.
var e21Strikes = []int{1, 3, 5}

const e21StrikeDelay = 2

// E21Lifecycle runs the query-lifecycle experiment of the PR 3 layer.
//
// Recovery half: the device hosting a pipeline stage is killed
// deterministically at an early, middle and late batch of a group-by
// scan, under three disciplines — a resume past epoch 0 (checkpoint
// every 2 segments) and a resume at epoch 0 (checkpointing off), both the
// engine's one re-planning recovery loop, and the volcano client's only
// option, re-executing from scratch. The replayed/wasted bytes are
// metered per discipline; the partial restart must replay only the
// suffix since the last completed checkpoint.
//
// Overload half: bursts of concurrent queries arrive at a scheduler
// with two execution slots and a two-deep admit queue, each carrying a
// deadline. Excess arrivals shed fast with ErrOverloaded instead of
// queueing until collapse, so admitted queries' makespan stays below
// the deadline no matter the offered load; the volcano baseline admits
// everything and its worst-query latency grows with the burst.
func E21Lifecycle(rows int, opts E21Options) (*E21Result, error) {
	if opts.Deadline <= 0 {
		opts.Deadline = time.Second
	}
	if len(opts.OfferedLoads) == 0 {
		opts.OfferedLoads = []int{1, 4, 16}
	}
	segRows := rows/e21Segments + 1
	data := workload.GenLineitem(workload.DefaultLineitemConfig(rows))
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())

	buildDF := func() (*core.DataFlowEngine, error) {
		df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		df.Storage.SegmentRows = segRows
		if err := loadDataFlow(df, "lineitem", data); err != nil {
			return nil, err
		}
		return df, nil
	}
	buildVo := func() (*core.VolcanoEngine, error) {
		// A megabyte, or room for two segments at about 25 stored bytes a
		// row when they are larger.
		vo := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), max(sim.MB, sim.Bytes(segRows)*64))
		vo.Storage.SegmentRows = segRows
		vo.Storage.Store().MaxRetries = 0
		if err := loadVolcano(vo, "lineitem", data); err != nil {
			return nil, err
		}
		return vo, nil
	}

	res := &E21Result{Deadline: opts.Deadline, Table: &Table{
		ID:    "E21",
		Title: "Query lifecycle: recovery waste and overload shedding",
		Header: []string{"scenario", "ok", "shed", "p99",
			"waste partial", "waste whole", "waste volcano"},
		Notes: fmt.Sprintf("kill@eK rows: device hosting a stage dies %d batches after checkpoint epoch K of %d; "+
			"waste = bytes replayed (resume past epoch 0) or burned by the abandoned run (resume at epoch 0 / re-run). "+
			"load=N rows: N concurrent arrivals against 2 slots + 2-deep queue, %v deadline; "+
			"p99 = worst admitted query wall time (volcano column: worst query with nothing shed)",
			e21StrikeDelay, e21Segments/e21EpochSegments, opts.Deadline),
	}}

	// Reference answer for correctness checks throughout.
	clean, err := buildDF()
	if err != nil {
		return nil, err
	}
	cleanRes, err := clean.Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}
	want := e19Histogram(cleanRes)
	check := func(r *core.Result, scenario string) error {
		if !maps.Equal(e19Histogram(r), want) {
			return fmt.Errorf("experiments: E21 %s returned wrong rows", scenario)
		}
		return nil
	}

	// ---- Recovery half -------------------------------------------------
	segBatches := (segRows + storage.DefaultBatchRows - 1) / storage.DefaultBatchRows
	for _, epoch := range e21Strikes {
		row := E21RecoveryRow{StrikeAt: epoch}
		// The struck device's one stage is checked once as the run starts
		// and once per batch: passing strike checks kills it on batch
		// strike. Volcano's read fault strikes the segment that batch is in.
		strike := epoch*e21EpochSegments*segBatches + e21StrikeDelay
		voStrike := (strike+segBatches-1)/segBatches - 1

		// Stage-level partial restart. Whether the epoch's marker has
		// reached the sink when the strike lands depends on goroutine
		// scheduling, so retry on a fresh engine until it engages (it
		// nearly always does on the first run).
		engaged := false
		for try := 0; try < 5 && !engaged; try++ {
			df, err := buildDF()
			if err != nil {
				return nil, err
			}
			df.PartialRestart = true
			target, err := e21KillTarget(df, q)
			if err != nil {
				return nil, err
			}
			inj := faults.New(e21Seed)
			inj.Arm(faults.Point{Kind: faults.DeviceOffline, Target: target,
				Prob: 1, Budget: 1, After: strike})
			df.Faults = inj
			r, err := df.Execute(context.Background(), q)
			if err != nil {
				return nil, fmt.Errorf("experiments: E21 partial restart at %d: %w", strike, err)
			}
			if err := check(r, "partial restart"); err != nil {
				return nil, err
			}
			if r.Stats.PartialRestarts > 0 {
				engaged = true
				row.PartialWaste = r.Stats.ReplayedBytes
				row.Restarts = r.Stats.PartialRestarts
				row.Checkpoints = r.Stats.Checkpoints
				row.PartialRecovery = r.Stats.RecoveryBytes
				row.SegmentsScanned = r.Stats.Scan.SegmentsTotal
			}
		}
		if !engaged {
			return nil, fmt.Errorf("experiments: E21 partial restart never engaged at strike %d (epoch %d)", strike, epoch)
		}

		// Resume at epoch 0 (checkpointing off): same kill.
		df, err := buildDF()
		if err != nil {
			return nil, err
		}
		target, err := e21KillTarget(df, q)
		if err != nil {
			return nil, err
		}
		inj := faults.New(e21Seed)
		inj.Arm(faults.Point{Kind: faults.DeviceOffline, Target: target,
			Prob: 1, Budget: 1, After: strike})
		df.Faults = inj
		r, err := df.Execute(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("experiments: E21 resume at epoch 0, kill at %d: %w", strike, err)
		}
		if err := check(r, "resume at epoch 0"); err != nil {
			return nil, err
		}
		row.WholeWaste = r.Stats.RecoveryBytes
		row.Failovers = r.Stats.Failovers

		// Volcano: a mid-query storage fault with no retry path kills
		// the query; the client's recovery is re-running it. The waste
		// is everything the dead attempt moved.
		vo, err := buildVo()
		if err != nil {
			return nil, err
		}
		voInj := faults.New(e21Seed)
		voInj.Arm(faults.Point{Kind: faults.TransientRead, Prob: 1, Budget: 1, After: voStrike})
		vo.Faults = voInj
		before := e21LinkBytes(vo.Cluster)
		if _, err := vo.Execute(context.Background(), q); err == nil {
			return nil, fmt.Errorf("experiments: E21 volcano survived an unretryable fault")
		}
		row.VolcanoWaste = e21LinkBytes(vo.Cluster) - before
		vr, err := vo.Execute(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("experiments: E21 volcano re-run at %d: %w", strike, err)
		}
		if err := check(vr, "volcano re-run"); err != nil {
			return nil, err
		}

		res.Recovery = append(res.Recovery, row)
		res.Table.AddRow(fmt.Sprintf("kill@e%d", epoch), "-", "-", "-",
			row.PartialWaste.String(), row.WholeWaste.String(), row.VolcanoWaste.String())
		res.Table.SetMetric(fmt.Sprintf("waste_partial@e%d", epoch), float64(row.PartialWaste))
		res.Table.SetMetric(fmt.Sprintf("waste_whole@e%d", epoch), float64(row.WholeWaste))
		res.Table.SetMetric(fmt.Sprintf("waste_volcano@e%d", epoch), float64(row.VolcanoWaste))
	}

	// ---- Overload half -------------------------------------------------
	df, err := buildDF()
	if err != nil {
		return nil, err
	}
	df.Scheduler.MaxActive = 2
	df.Scheduler.QueueCap = 2
	vo, err := buildVo()
	if err != nil {
		return nil, err
	}
	for _, load := range opts.OfferedLoads {
		row := E21OverloadRow{Offered: load}
		type outcome struct {
			wall time.Duration
			err  error
		}
		outs := make([]outcome, load)
		var wg sync.WaitGroup
		for i := 0; i < load; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), opts.Deadline)
				defer cancel()
				start := df.Clock.Now()
				r, err := df.Execute(ctx, q)
				outs[i] = outcome{wall: df.Clock.Since(start), err: err}
				if err == nil {
					if cerr := check(r, "overload"); cerr != nil {
						outs[i].err = cerr
					}
				}
			}(i)
		}
		wg.Wait()
		var walls []time.Duration
		for _, o := range outs {
			switch {
			case o.err == nil:
				row.OK++
				walls = append(walls, o.wall)
			case errors.Is(o.err, sched.ErrOverloaded):
				row.Shed++
			case errors.Is(o.err, core.ErrDeadlineExceeded):
				row.Expired++
			default:
				return nil, fmt.Errorf("experiments: E21 overload run failed: %w", o.err)
			}
		}
		slices.Sort(walls)
		row.P99 = quantile(walls, 0.99)
		if df.Scheduler.ActiveCount() != 0 || df.Scheduler.QueueDepth() != 0 {
			return nil, fmt.Errorf("experiments: E21 leaked admissions at load %d", load)
		}

		// No admission control: every arrival is served, so the worst
		// query waits for the whole backlog.
		voStart := vo.Clock.Now()
		for i := 0; i < load; i++ {
			vr, err := vo.Execute(context.Background(), q)
			if err != nil {
				return nil, fmt.Errorf("experiments: E21 volcano overload: %w", err)
			}
			if err := check(vr, "volcano overload"); err != nil {
				return nil, err
			}
		}
		row.VoP99 = vo.Clock.Since(voStart)

		res.Overload = append(res.Overload, row)
		res.Table.AddRow(fmt.Sprintf("load=%d", load),
			fmt.Sprintf("%d/%d", row.OK, load), d(int64(row.Shed)),
			fmt.Sprintf("%s | vo %s", e21Ms(row.P99), e21Ms(row.VoP99)),
			"-", "-", "-")
		res.Table.SetMetric(fmt.Sprintf("ok@load%d", load), float64(row.OK))
		res.Table.SetMetric(fmt.Sprintf("shed@load%d", load), float64(row.Shed))
		res.Table.SetMetric(fmt.Sprintf("p99_ms@load%d", load), float64(row.P99.Microseconds())/1000)
		res.Table.SetMetric(fmt.Sprintf("vo_p99_ms@load%d", load), float64(row.VoP99.Microseconds())/1000)
	}
	return res, nil
}

// e21KillTarget picks the first intermediate stage device of the
// query's top-ranked variant — the device the admitted plan will run a
// pipeline stage on.
func e21KillTarget(df *core.DataFlowEngine, q *plan.Query) (string, error) {
	variants, err := df.Plan(q, 0)
	if err != nil {
		return "", err
	}
	best := variants[0]
	for _, pl := range best.Placements {
		if pl.SiteIdx > 0 && pl.SiteIdx < len(best.Path.Sites)-1 {
			return best.Path.Sites[pl.SiteIdx].Device.Name, nil
		}
	}
	return "", fmt.Errorf("experiments: E21 variant %q places no intermediate stage", best.Variant)
}

// e21LinkBytes sums the payload moved over every link of the cluster.
func e21LinkBytes(c *fabric.Cluster) sim.Bytes {
	var n sim.Bytes
	for _, l := range c.Links() {
		n += l.Meter.Bytes()
	}
	return n
}

// e21Ms renders a wall duration at millisecond precision.
func e21Ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
