package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/workload"
)

// lifecycleEngine builds a dataflow engine over a lineitem table with a
// chosen segment size, so tests control how many scan segments (and
// therefore checkpoint epochs) a query spans.
func lifecycleEngine(t *testing.T, rows, segmentRows int) *DataFlowEngine {
	t.Helper()
	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Storage.SegmentRows = segmentRows
	if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := df.Load("lineitem", workload.GenLineitem(workload.DefaultLineitemConfig(rows))); err != nil {
		t.Fatal(err)
	}
	return df
}

// killPoint arms a budget-1 device-offline fault against the first
// intermediate stage device of the query's top-ranked variant, striking
// deterministically on the (after+1)-th batch the stage sees.
func killPoint(t *testing.T, df *DataFlowEngine, q *plan.Query, after int) (string, *faults.Injector) {
	t.Helper()
	variants, err := df.Plan(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	best := variants[0]
	target := ""
	for _, pl := range best.Placements {
		if pl.SiteIdx > 0 && pl.SiteIdx < len(best.Path.Sites)-1 {
			target = best.Path.Sites[pl.SiteIdx].Device.Name
			break
		}
	}
	if target == "" {
		t.Fatalf("variant %q places no stage on an intermediate device", best.Variant)
	}
	inj := faults.New(0xF00D)
	inj.Arm(faults.Point{Kind: faults.DeviceOffline, Target: target, Prob: 1, Budget: 1, After: after})
	return target, inj
}

// A mid-query device kill with checkpointing on must recover by a
// stage-level partial restart — replaying only the segments since the
// last completed epoch — while the same kill without checkpointing
// abandons the whole attempt. Both answer correctly; the partial
// restart must replay strictly fewer bytes than the whole-query
// failover wastes.
func TestPartialRestartReplaysLessThanFailover(t *testing.T) {
	const rows, segRows = 20000, 2500 // 8 segments, one batch each
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())

	clean := lifecycleEngine(t, rows, segRows)
	cleanRes, err := clean.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := rowHistogram(cleanRes)

	// The stage sees one offline check at startup plus one per batch:
	// After=7 strikes on batch 7 of 8, after the epoch markers for
	// segments 2, 4 and 6 have been injected (one epoch is two segments).
	// Whether an epoch has *completed* (its marker fell off the last
	// stage) by the time the strike lands depends on goroutine
	// scheduling: when none has, the engine correctly falls back to
	// whole-query failover, so re-run the scenario on a fresh engine
	// until the strike catches a completed checkpoint.
	var pres *Result
	var partial *DataFlowEngine
	var target string
	for try := 0; try < 5; try++ {
		partial = lifecycleEngine(t, rows, segRows)
		partial.PartialRestart = true
		var inj *faults.Injector
		target, inj = killPoint(t, partial, q, 7)
		partial.Faults = inj

		res, err := partial.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("query did not survive partial restart after killing %s: %v", target, err)
		}
		if res.Stats.PartialRestarts > 0 {
			pres = res
			break
		}
	}
	if pres == nil {
		t.Fatal("no run recovered by partial restart in 5 tries")
	}
	if pres.Stats.PartialRestarts != 1 {
		t.Errorf("PartialRestarts = %d, want 1", pres.Stats.PartialRestarts)
	}
	if pres.Stats.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0 (restart should stay inside the attempt)", pres.Stats.Failovers)
	}
	if pres.Stats.Checkpoints < 1 {
		t.Errorf("Checkpoints = %d, want >= 1", pres.Stats.Checkpoints)
	}
	if pres.Stats.ReplayedBytes == 0 {
		t.Error("partial restart metered no replayed bytes")
	}
	if pres.Stats.RecoveryBytes < pres.Stats.ReplayedBytes {
		t.Errorf("RecoveryBytes %v < ReplayedBytes %v", pres.Stats.RecoveryBytes, pres.Stats.ReplayedBytes)
	}
	if !pres.Stats.DegradedPlacement {
		t.Error("DegradedPlacement not set after re-hosting a stage")
	}
	if got := rowHistogram(pres); len(got) != len(want) {
		t.Fatalf("partial-restart answer has %d rows, want %d", len(got), len(want))
	} else {
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("partial-restart answer differs at %q", k)
			}
		}
	}
	if !partial.Cluster.MustDevice(target).IsOffline() {
		t.Errorf("%s not marked offline after the injected kill", target)
	}

	// Same kill, checkpointing off: the whole attempt is wasted and the
	// query fails over to a re-planned variant.
	whole := lifecycleEngine(t, rows, segRows)
	wtarget, winj := killPoint(t, whole, q, 7)
	whole.Faults = winj

	wres, err := whole.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("query did not survive failover after killing %s: %v", wtarget, err)
	}
	if wres.Stats.Failovers < 1 {
		t.Errorf("Failovers = %d, want >= 1", wres.Stats.Failovers)
	}
	if wres.Stats.PartialRestarts != 0 {
		t.Errorf("PartialRestarts = %d with PartialRestart disabled", wres.Stats.PartialRestarts)
	}
	if got := rowHistogram(wres); len(got) != len(want) {
		t.Fatalf("failover answer has %d rows, want %d", len(got), len(want))
	}

	// The honest accounting that justifies the machinery: replaying a
	// checkpointed suffix moves strictly fewer bytes than re-running the
	// query from scratch.
	if pres.Stats.ReplayedBytes >= wres.Stats.RecoveryBytes {
		t.Errorf("partial restart replayed %v, not less than whole-query failover waste %v",
			pres.Stats.ReplayedBytes, wres.Stats.RecoveryBytes)
	}
}

// A query nothing is wrong with, run beside one that loses a device and
// restarts from a checkpoint, reports exactly what it reports alone and
// no recovery work: the restart's replayed bytes are read off the
// restarting query's own account against an earlier copy of itself, not
// off meters both queries charge.
func TestCalmQueryBesideARestartingOne(t *testing.T) {
	const rows, segRows = 20000, 2500 // 8 segments, one batch each
	ctx := context.Background()
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	// Whether a checkpoint has completed when the strike lands depends on
	// goroutine scheduling (see TestPartialRestartReplaysLessThanFailover);
	// re-run on a fresh engine until one has.
	for try := 0; try < 5; try++ {
		df := lifecycleEngine(t, rows, segRows)
		df.PartialRestart = true
		// The calm query places nothing on the device about to die.
		calm := mustPlanned(t, df, plan.NewQuery("lineitem").WithProjection(workload.LExtendedPrice), "cpu-only")
		solo, err := df.ExecutePlan(ctx, calm)
		if err != nil {
			t.Fatal(err)
		}
		_, df.Faults = killPoint(t, df, q, 7)

		restarted := make(chan *Result, 1)
		go func() {
			res, err := df.Execute(ctx, q)
			if err != nil {
				t.Errorf("query did not survive the kill: %v", err)
			}
			restarted <- res
		}()
		var res *Result
		for finished := false; !finished; {
			beside, err := df.ExecutePlan(ctx, calm)
			if err != nil {
				t.Fatal(err)
			}
			st := beside.Stats
			if got, want := fabricOf(st), fabricOf(solo.Stats); !reflect.DeepEqual(got, want) {
				t.Fatalf("the calm query was charged the restarting one's work:\n got  %+v\n solo %+v", got, want)
			}
			if st.RecoveryBytes != 0 || st.RecoveryTime != 0 || st.ReplayedBytes != 0 || st.PartialRestarts != 0 || st.Failovers != 0 {
				t.Fatalf("the calm query reports recovery work: %+v", st)
			}
			select {
			case res = <-restarted:
				finished = true
			default:
			}
		}
		if res == nil {
			return // Execute failed and said so
		}
		if res.Stats.PartialRestarts > 0 {
			if res.Stats.ReplayedBytes == 0 || res.Stats.ReplayedBytes > res.Stats.MovedBytes {
				t.Errorf("restart replayed %v of the %v the query moved in all", res.Stats.ReplayedBytes, res.Stats.MovedBytes)
			}
			return
		}
	}
	t.Fatal("no run recovered by partial restart in 5 tries")
}

func TestExecutePreCancelledContext(t *testing.T) {
	df := lifecycleEngine(t, 2000, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := df.Execute(ctx, plan.NewQuery("lineitem").WithCount())
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled retained in chain", err)
	}
	if df.Scheduler.ActiveCount() != 0 {
		t.Error("cancelled query left an admission")
	}
}

func TestExecuteExpiredDeadline(t *testing.T) {
	df := lifecycleEngine(t, 2000, 1000)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := df.Execute(ctx, plan.NewQuery("lineitem").WithCount())
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded retained in chain", err)
	}
	if df.Scheduler.ActiveCount() != 0 {
		t.Error("expired query left an admission")
	}
}

// Cancelling mid-flight — at staggered instants across repeated runs, so
// cancellation lands during admission, the scan, and stage execution —
// must always release the admission, return link loads to zero, and
// leave no flow goroutine behind. Every error surfaced is the typed one.
func TestMidFlightCancelReleasesEverything(t *testing.T) {
	df := lifecycleEngine(t, 20000, 1000) // 20 segments: many ctx checkpoints
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	cancelled := 0
	for i := 0; i < 12; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(i*50)*time.Microsecond, cancel)
		res, err := df.Execute(ctx, q)
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			if res.Rows() == 0 {
				t.Fatalf("run %d: empty result without error", i)
			}
		case errors.Is(err, ErrCancelled):
			cancelled++
		default:
			t.Fatalf("run %d: err = %v, want ErrCancelled or success", i, err)
		}
	}
	if cancelled == 0 {
		t.Error("no run was cancelled mid-flight; staggering too slow")
	}
	if df.Scheduler.ActiveCount() != 0 {
		t.Errorf("ActiveCount = %d after cancels, want 0", df.Scheduler.ActiveCount())
	}
	for _, l := range df.Cluster.Links() {
		if load := df.Scheduler.LinkLoad(l); load != 0 {
			t.Errorf("link %s still carries admission load %d", l.Name, load)
		}
	}
	assertNoFlowGoroutines(t)
}

// A query that fails on a storage error (not a cancellation) must also
// release its admission and link reservations.
func TestErrorPathReleasesAdmission(t *testing.T) {
	df := lifecycleEngine(t, 5000, 1000)
	meta, err := df.Storage.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	key := meta.SegmentKeys[len(meta.SegmentKeys)/2]
	blob, err := df.Storage.Store().Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	mangled := append([]byte(nil), blob...)
	mangled[len(mangled)/2] ^= 0x40
	df.Storage.Store().Put(key, mangled)

	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	for i := 0; i < 3; i++ {
		if _, err := df.Execute(context.Background(), q); err == nil {
			t.Fatal("corrupted segment produced a result")
		}
		if df.Scheduler.ActiveCount() != 0 {
			t.Fatalf("run %d leaked an admission", i)
		}
		for _, l := range df.Cluster.Links() {
			if load := df.Scheduler.LinkLoad(l); load != 0 {
				t.Fatalf("run %d left load %d on link %s", i, load, l.Name)
			}
		}
	}
	assertNoFlowGoroutines(t)
}

// Overload shedding end to end: with one execution slot and a one-deep
// admit queue, a burst of concurrent queries must split into successes
// and fast typed ErrOverloaded rejections — never a wrong answer, never
// a leaked admission.
func TestOverloadShedsWithTypedError(t *testing.T) {
	df := lifecycleEngine(t, 10000, 1000)
	df.Scheduler.MaxActive = 1
	df.Scheduler.QueueCap = 1
	q := plan.NewQuery("lineitem").WithCount()

	const burst = 6
	type outcome struct {
		res *Result
		err error
	}
	results := make(chan outcome, burst)
	for i := 0; i < burst; i++ {
		go func() {
			res, err := df.Execute(context.Background(), q)
			results <- outcome{res, err}
		}()
	}
	ok, shed := 0, 0
	for i := 0; i < burst; i++ {
		o := <-results
		switch {
		case o.err == nil:
			if got := o.res.Batches[0].Col(0).Int64s()[0]; got != 10000 {
				t.Errorf("count under overload = %d, want 10000", got)
			}
			ok++
		case errors.Is(o.err, sched.ErrOverloaded):
			shed++
		default:
			t.Errorf("unexpected error under overload: %v", o.err)
		}
	}
	if ok == 0 {
		t.Error("no query succeeded under overload")
	}
	if ok+shed != burst {
		t.Errorf("ok=%d shed=%d, want all %d accounted", ok, shed, burst)
	}
	if df.Scheduler.ActiveCount() != 0 || df.Scheduler.QueueDepth() != 0 {
		t.Errorf("active=%d queued=%d after burst, want 0/0",
			df.Scheduler.ActiveCount(), df.Scheduler.QueueDepth())
	}
}

// assertNoFlowGoroutines fails if any goroutine is still parked inside
// the flow runtime — the engine-level counterpart of the flow package's
// own leak check.
func assertNoFlowGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(buf, []byte("repro/internal/flow.")) {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("flow goroutines leaked:\n%s", buf)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
