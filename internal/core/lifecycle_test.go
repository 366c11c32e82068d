package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sim"
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

// What a recovered query reports moving and what it reports wasting add
// up to what the links carried, whichever epoch it resumed from: the run
// that answers charges a copy of the failed run's account as of the
// resume point, so no byte lands in both figures.
func TestRecoveredQueryChargesEachByteOnce(t *testing.T) {
	const rows, segRows = 20000, 2500 // 8 segments, one batch each
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	for _, checkpoints := range []bool{false, true} {
		// Whether a checkpoint has completed when the strike lands depends
		// on goroutine scheduling (see
		// TestPartialRestartReplaysLessThanFailover); re-run on a fresh
		// engine until the resume kind is the one under test.
		var res *Result
		var moved sim.Bytes
		for try := 0; try < 5; try++ {
			df := lifecycleEngine(t, rows, segRows)
			df.PartialRestart = checkpoints
			_, df.Faults = killPoint(t, df, q, 7)
			before := linkMeterBytes(df.Cluster)
			r, err := df.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if r.Stats.PartialRestarts+r.Stats.Failovers != 1 {
				t.Fatalf("partial restarts %d + failovers %d, want 1 recovery",
					r.Stats.PartialRestarts, r.Stats.Failovers)
			}
			if (r.Stats.PartialRestarts == 1) == checkpoints {
				res, moved = r, linkMeterBytes(df.Cluster)-before
				break
			}
		}
		if res == nil {
			t.Fatalf("checkpoints=%v: no run resumed as wanted in 5 tries", checkpoints)
		}
		st := res.Stats
		if st.RecoveryBytes == 0 {
			t.Errorf("checkpoints=%v: the failed run wasted nothing", checkpoints)
		}
		if got := st.MovedBytes + st.RecoveryBytes; got != moved {
			t.Errorf("checkpoints=%v: moved %v + recovery %v = %v, links carried %v",
				checkpoints, st.MovedBytes, st.RecoveryBytes, got, moved)
		}
	}
}

// A traced run resumed past epoch 0 draws on from where the shared
// virtual clock stands, not from 0: its scan follows the failed run's,
// so no two spans on one device track overlap (a link pipelines its
// transfers, so transfer spans are exempt), and its kernel setups come
// after the recovery.
func TestResumedTraceDrawsAfterTheFailedRun(t *testing.T) {
	const rows, segRows = 20000, 2500 // 8 segments, one batch each
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	for try := 0; try < 5; try++ {
		df := lifecycleEngine(t, rows, segRows)
		df.PartialRestart, df.Tracing = true, true
		_, df.Faults = killPoint(t, df, q, 7)
		res := mustExecute(t, df, q)
		if res.Stats.PartialRestarts != 1 {
			continue
		}
		var recovery sim.VTime
		for _, ev := range res.Trace.Events() {
			if ev.Name == "recovery" {
				recovery = ev.At
			}
		}
		late := 0                         // kernel setups at or after the recovery
		busy := make(map[string]obs.Span) // per track, the span ending last
		for _, sp := range res.Trace.Spans() {
			if sp.Kind == obs.SpanSetup && sp.Start >= recovery {
				late++
			}
			if sp.Kind == obs.SpanTransfer {
				continue
			}
			prev, ok := busy[sp.Track]
			if ok && sp.Start < prev.End {
				t.Errorf("%s: %s[%d] %v-%v overlaps %s[%d] %v-%v",
					sp.Track, sp.Name, sp.Seq, sp.Start, sp.End, prev.Name, prev.Seq, prev.Start, prev.End)
			}
			if !ok || sp.End > prev.End {
				busy[sp.Track] = sp
			}
		}
		if recovery == 0 || late == 0 {
			t.Errorf("no kernel setup at or after the recovery at %v", recovery)
		}
		return
	}
	t.Fatal("no run resumed past epoch 0 in 5 tries")
}

// linkMeterBytes sums what every link of the cluster has carried.
func linkMeterBytes(c *fabric.Cluster) sim.Bytes {
	var n sim.Bytes
	for _, l := range c.Links() {
		n += l.Meter.Bytes()
	}
	return n
}

// A re-plan whose pipeline differs from the failed one resumes at epoch
// 0 even when the failed run completed checkpoints: its snapshots are
// restored by stage index, so they fit only the same stage list. With
// the storage processor down, the full-offload cascade pre-aggregates at
// every NIC and the near-memory accelerator; killing the first of them
// re-plans a cascade one pre-aggregation shorter.
func TestResumeAtEpochZeroWhenTheStagesDiffer(t *testing.T) {
	// 40 segments, struck on the last: a pre-aggregation forwards only
	// markers, so nothing but time holds the struck stage back for the
	// three behind it to complete an epoch.
	const rows, segRows = 20000, 500
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	want := rowHistogram(mustExecute(t, lifecycleEngine(t, rows, segRows), q))
	for try := 0; try < 5; try++ {
		df := lifecycleEngine(t, rows, segRows)
		df.PartialRestart = true
		df.Tracing = true
		df.Cluster.MustDevice(fabric.DevStorageProc).SetOffline(true)
		_, df.Faults = killPoint(t, df, q, rows/segRows-1)
		res := mustExecute(t, df, q)
		if st := res.Stats; st.Failovers != 1 || st.PartialRestarts != 0 || st.ReplayedBytes != 0 {
			t.Fatalf("failovers %d, partial restarts %d, replayed %v; want one resume at epoch 0",
				st.Failovers, st.PartialRestarts, st.ReplayedBytes)
		}
		if got := rowHistogram(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("answer %v, want %v", got, want)
		}
		var recovery []obs.Event
		for _, ev := range res.Trace.Events() {
			if ev.Name == "recovery" {
				recovery = append(recovery, ev)
			}
		}
		if len(recovery) != 1 || !strings.Contains(recovery[0].Detail, "resuming full-offload at epoch 0") {
			t.Fatalf("recovery events %+v, want one resuming full-offload at epoch 0", recovery)
		}
		// The rule, not a missing checkpoint, must have chosen epoch 0.
		if !strings.Contains(recovery[0].Detail, "latest complete epoch 0;") {
			return
		}
	}
	t.Fatal("no failed run had completed a checkpoint in 5 tries")
}

// mustExecute runs q on df and fails the test on an error.
func mustExecute(t *testing.T, df *DataFlowEngine, q *plan.Query) *Result {
	t.Helper()
	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// One query runs its pipeline at most DefaultMaxRecoveryAttempts times,
// whatever epochs its recoveries resume from. The first run loses its
// NIC on its last batch and resumes on a re-plan, past epoch 0 when a
// checkpoint has completed; from the second run on, the link into the
// compute node fails the first batch it carries, and the query gives up
// after the fifth run.
func TestOneRecoveryBudget(t *testing.T) {
	const rows, segRows = 20000, 2500 // 8 segments, one batch each
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	df := lifecycleEngine(t, rows, segRows)
	df.PartialRestart = true
	nic, inj := killPoint(t, df, q, 7)
	// The first run carries at most 8 batches over the link, so the flap
	// first fires in the second run, and then in every run after it.
	inj.Arm(faults.Point{Kind: faults.LinkFlap, Target: "switch--" + nic, Prob: 1, After: rows / segRows})
	df.Faults = inj
	_, err := df.Execute(context.Background(), q)
	if !faults.IsTransient(err) {
		t.Fatalf("err = %v, want the link flap after the last run", err)
	}
	if got := inj.Fires(); got != DefaultMaxRecoveryAttempts {
		t.Errorf("%d pipeline runs failed, want %d\n%s", got, DefaultMaxRecoveryAttempts, inj.Schedule())
	}
	if df.Scheduler.ActiveCount() != 0 {
		t.Error("the failed query left an admission")
	}
	assertNoFlowGoroutines(t)
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
