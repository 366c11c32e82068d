package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/obs/metrics"
	"repro/internal/plan"
	"repro/internal/repair"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Self-healing chaos: queries must return bit-identical answers while
// replicas are corrupted, lost, re-read, repaired and re-cloned
// underneath them, and the repair accounting must conserve bytes —
// queries are charged for exactly the clean payloads they consume, and
// each damaged blob is repaired exactly once.

func buildSelfHealEngine(t *testing.T, replicas int, data *columnar.Batch) *DataFlowEngine {
	t.Helper()
	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Storage.Store().SetReplicas(replicas)
	df.Storage.Store().RetryBase = 0
	df.Storage.SegmentRows = 1000 // 20 segments: many chances to hit damage
	if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := df.Load("lineitem", data); err != nil {
		t.Fatal(err)
	}
	return df
}

// damageDetectably corrupts replica 0 of lineitem's segments, in key
// order, until one flip is detectable: a flip can land in framing bytes
// no column checksum covers, which verification cannot see by
// construction.
func damageDetectably(t *testing.T, store *storage.ObjectStore) {
	t.Helper()
	for _, key := range store.List("lineitem/") {
		if !store.CorruptReplica(key, 0) {
			t.Fatalf("could not damage %s", key)
		}
		raw, err := store.ReadReplicaRaw(context.Background(), key, 0)
		if err != nil {
			t.Fatal(err)
		}
		if storage.VerifySegmentBlob(raw) != nil {
			return
		}
	}
	t.Fatal("no segment took detectable damage")
}

// Deterministic read-repair under concurrency: a third of replica 0's
// segment blobs carry latent damage, concurrent queries all answer
// bit-identically, the main meter is charged for exactly one clean
// payload per segment per query, and every damaged blob is written back
// exactly once no matter how many readers detected it.
func TestSelfHealReadRepairConservation(t *testing.T) {
	cfg := workload.DefaultLineitemConfig(testRows)
	data := workload.GenLineitem(cfg)

	clean := buildSelfHealEngine(t, 2, data)
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	want, err := clean.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := rowHistogram(want)

	df := buildSelfHealEngine(t, 2, data)
	ctrl := df.EnableRepair(repair.Config{})
	store := df.Storage.Store()

	// Warm up with verification on to measure the per-query payload.
	bytesBefore := store.Meter.Bytes()
	if _, err := df.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	perQuery := store.Meter.Bytes() - bytesBefore

	// Seed latent damage on replica 0 of every third segment. A flip can
	// land in framing bytes the segment checksums do not cover, so count
	// only the detectable damage — the undetectable kind is invisible to
	// verification by construction and changes no answer.
	var damaged int
	keys := store.List("lineitem/")
	if len(keys) < 10 {
		t.Fatalf("only %d segments, want a fleet of them", len(keys))
	}
	for i, key := range keys {
		if i%3 == 0 {
			if !store.CorruptReplica(key, 0) {
				t.Fatalf("could not damage %s", key)
			}
			raw, err := store.ReadReplicaRaw(context.Background(), key, 0)
			if err != nil {
				t.Fatal(err)
			}
			if storage.VerifySegmentBlob(raw) != nil {
				damaged++
			}
		}
	}
	if damaged < 2 {
		t.Fatalf("only %d detectable damaged blobs seeded", damaged)
	}

	const workers, rounds = 6, 3
	bytesBefore = store.Meter.Bytes()
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := df.Execute(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				got := rowHistogram(res)
				if len(got) != len(wantRows) {
					t.Errorf("%d distinct rows, want %d", len(got), len(wantRows))
					return
				}
				for k, n := range wantRows {
					if got[k] != n {
						t.Errorf("row %q count %d, want %d", k, got[k], n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query over damaged replicas failed: %v", err)
	}

	// Byte conservation: every query paid for each segment's clean
	// payload exactly once; discarded corrupt reads and repair
	// write-backs landed on their own counters.
	if got, want := store.Meter.Bytes()-bytesBefore, sim.Bytes(workers*rounds)*perQuery; got != want {
		t.Errorf("main meter charged %d bytes for %d queries, want exactly %d", got, workers*rounds, want)
	}
	rep := store.Totals()
	if rep.ReadRepairs != int64(damaged) {
		t.Errorf("ReadRepairs = %d, want exactly %d (one per damaged blob)", rep.ReadRepairs, damaged)
	}
	if rep.CorruptReads < int64(damaged) {
		t.Errorf("CorruptReads = %d, want >= %d", rep.CorruptReads, damaged)
	}
	if rep.CorruptBytes == 0 {
		t.Error("discarded corrupt payloads were not metered")
	}
	if got := ctrl.Stats().ReadRepairs; got != int64(damaged) {
		t.Errorf("controller ReadRepairs = %d, want %d", got, damaged)
	}

	// Everything verifies clean now: a scrub pass finds no work.
	sum := ctrl.ScrubPass(context.Background())
	if sum.Corrupt != 0 || sum.Healed != 0 || sum.Lost != 0 {
		t.Errorf("post-heal scrub = %+v, want all clean", sum)
	}
	if sum.Clean != 2*len(keys) {
		t.Errorf("scrub verified %d blobs, want %d", sum.Clean, 2*len(keys))
	}

	// The per-query stats surfaced the repair work and the String form
	// renders it.
	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Scan.CorruptReads != 0 || res.Stats.Scan.ReadRepairs != 0 {
		t.Errorf("post-heal query still reports repair work: %+v", res.Stats)
	}
	healed := ExecStats{Engine: "dataflow"}
	healed.Scan.ReadStats = storage.ReadStats{CorruptReads: 2, ReadRepairs: 1, RepairBytes: 64}
	if !strings.Contains(healed.String(), "store reads: corruptReads=2 readRepairs=1 repairBytes=64") {
		t.Errorf("ExecStats.String does not render the store account:\n%s", healed.String())
	}
}

// The baseline reports the store's self-healing work the way the
// data-flow engine does: a corrupt replica under a Volcano query shows
// up in Stats.Scan as the discarded read and the write-back it
// triggered, not only as the fallback.
func TestSelfHealVolcanoReportsStoreAccount(t *testing.T) {
	data := workload.GenLineitem(workload.DefaultLineitemConfig(testRows))
	vo := NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 256*sim.MB)
	store := vo.Storage.Store()
	store.SetReplicas(2)
	vo.Storage.EnableVerify(true)
	if err := vo.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := vo.Load("lineitem", data); err != nil {
		t.Fatal(err)
	}
	damageDetectably(t, store)

	res, err := vo.Execute(context.Background(), plan.NewQuery("lineitem").WithCount())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Stats.Scan.ReadStats
	if got.CorruptReads != 1 || got.ReadRepairs != 1 || got.ReplicaFallbacks != 1 {
		t.Errorf("volcano account = %+v, want 1 corrupt read, 1 read-repair, 1 fallback", got)
	}
	if got.CorruptBytes == 0 || got.RepairBytes == 0 {
		t.Errorf("volcano account carries no corrupt/repair bytes: %+v", got)
	}
}

// Full chaos: StickyCorrupt and DeviceOffline armed, a whole replica
// lost mid-run, the background Run loop scrubbing and re-cloning under
// concurrent queries. Every query answers bit-identically, the dead
// replica is declared and restored with a recorded MTTR, and a final
// scrub finds the store fully clean. CI runs this with -race -count=2.
func TestSelfHealChaosScrubAndReclone(t *testing.T) {
	cfg := workload.DefaultLineitemConfig(testRows)
	data := workload.GenLineitem(cfg)

	clean := buildSelfHealEngine(t, 3, data)
	queries := []*plan.Query{
		plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary()),
		plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.1)).
			WithProjection(workload.LExtendedPrice),
	}
	expected := make([]map[string]int, len(queries))
	for i, q := range queries {
		res, err := clean.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = rowHistogram(res)
	}

	// Three replicas: sticky damage lands on r0, replica 2 dies, and r1
	// stays clean so every heal has a source.
	df := buildSelfHealEngine(t, 3, data)
	store := df.Storage.Store()
	pol := resilience.NewPolicy()
	df.EnableResilience(pol)
	ctrl := df.EnableRepair(repair.Config{
		Interval:  time.Millisecond,
		DeadAfter: 5 * time.Millisecond,
		Streams:   2,
	})

	// One injector for the store and the pipelines: each point keeps its
	// arm index, and with it its own seeded stream.
	inj := faults.New(0x5E1F)
	inj.Arm(faults.Point{Kind: faults.StickyCorrupt, Target: "store/r0", Prob: 0.05, Budget: 6})
	inj.Arm(faults.Point{Kind: faults.DeviceOffline, Target: fabric.DevStorageProc, Prob: 1, Budget: 1})
	df.Faults = inj

	runCtx, stopRun := context.WithCancel(context.Background())
	var runWG sync.WaitGroup
	runWG.Add(1)
	go func() {
		defer runWG.Done()
		ctrl.Run(runCtx)
	}()

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	var killOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if w == 0 && r == 1 {
					// Mid-run, a whole replica's device dies.
					killOnce.Do(func() { store.FailReplica(2) })
				}
				qi := (w + r) % len(queries)
				res, err := df.ExecuteOn(context.Background(), queries[qi], w%2)
				if err != nil {
					errs <- err
					return
				}
				got := rowHistogram(res)
				if len(got) != len(expected[qi]) {
					t.Errorf("worker %d query %d: %d distinct rows, want %d",
						w, qi, len(got), len(expected[qi]))
					return
				}
				for k, n := range expected[qi] {
					if got[k] != n {
						t.Errorf("worker %d query %d: row %q count %d, want %d",
							w, qi, k, got[k], n)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query under self-heal chaos failed: %v", err)
	}

	// Let the background loop finish the heal: at-risk drains to zero,
	// and a whole scrub pass starts and ends after the last query, so the
	// damage the queries' own reads left on r0 is found too. A pass that
	// was under way as they ended may have gone past it; every blob it
	// verifies clean counts once, so two passes' worth of them since then
	// take in a whole later pass.
	blobs := 0
	for _, key := range store.List("") {
		blobs += store.ReplicaCount(key)
	}
	scrubbed := ctrl.Stats().Scrubbed
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if objects, _ := store.UnderReplicated(); objects == 0 && ctrl.Stats().Scrubbed >= scrubbed+2*int64(blobs) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	stopRun()
	runWG.Wait()

	if objects, slots := store.UnderReplicated(); objects != 0 {
		t.Fatalf("%d objects still under-replicated (slots %v) after the heal loop", objects, slots)
	}
	rep := ctrl.Stats()
	if rep.DeadDeclared < 1 {
		t.Error("dead replica never declared")
	}
	if rep.Recloned != int64(len(store.List("lineitem/"))) {
		t.Errorf("Recloned = %d, want every segment of the dead replica (%d)",
			rep.Recloned, len(store.List("lineitem/")))
	}
	if rep.LastMTTR <= 0 {
		t.Error("completed restoration recorded no MTTR")
	}
	if rep.Unrecoverable != 0 {
		t.Errorf("%d blobs unrecoverable with a clean replica present", rep.Unrecoverable)
	}
	// Each heal is counted once, by whoever wrote it.
	if wrote := store.Totals().ReadRepairs; rep.ReadRepairs+rep.ScrubRepairs+rep.Recloned != wrote {
		t.Errorf("controller counted %d read-repairs + %d scrub repairs + %d re-clones, the store wrote %d repairs",
			rep.ReadRepairs, rep.ScrubRepairs, rep.Recloned, wrote)
	}

	// The store is fully clean: one more scrub pass verifies every blob.
	// The sticky point may have budget left, and the pass's own reads
	// would spend it on fresh damage and heal that; disarmed, the pass
	// sees only what the heal loop left.
	df.Faults = nil
	sum := ctrl.ScrubPass(context.Background())
	if sum.Corrupt != 0 || sum.Lost != 0 || sum.Healed != 0 {
		t.Errorf("final scrub = %+v, want nothing left to heal", sum)
	}
	if df.Scheduler.ActiveCount() != 0 {
		t.Error("admissions leaked after chaos")
	}
}

// A breaker trip is counted where it happens, on the query whose failure
// opened the breaker: of four concurrent queries reading a table whose
// first replica is damaged, the one whose corrupt read crossed the
// threshold reports the trip on its store account and the others report
// none; a device that dies under a pipeline stage trips the engine's own
// breaker for the query that lost it. Either way the queries' trips sum
// to the open transitions the breakers announced (OnChange, which the
// engine mirrors into resilience.breaker.trips).
func TestBreakerTripsAreCountedWhereTheyHappen(t *testing.T) {
	data := workload.GenLineitem(workload.DefaultLineitemConfig(testRows))
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	policy := func() *resilience.Policy {
		pol := resilience.NewPolicy()
		pol.Hedge, pol.Speculate = false, false
		// One failure opens a breaker and it stays open for the test, so
		// every breaker trips exactly once.
		pol.Breakers = resilience.NewBreakerSet(resilience.BreakerConfig{TripThreshold: 1, Cooldown: time.Hour})
		return pol
	}

	t.Run("store", func(t *testing.T) {
		df := buildSelfHealEngine(t, 2, data)
		df.EnableRepair(repair.Config{})
		reg := metrics.New()
		df.Metrics = reg
		df.EnableResilience(policy())
		damageDetectably(t, df.Storage.Store())

		trips := make([]ExecStats, 4)
		var wg sync.WaitGroup
		for i := range trips {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := df.Execute(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				trips[i] = res.Stats
			}()
		}
		wg.Wait()
		var sum int64
		for i, st := range trips {
			if st.BreakerTrips != st.Scan.BreakerTrips {
				t.Errorf("query %d: BreakerTrips = %d, its store account holds %d", i, st.BreakerTrips, st.Scan.BreakerTrips)
			}
			sum += st.BreakerTrips
		}
		if total := reg.Snapshot(time.Now()).Counters["resilience.breaker.trips"]; sum != total || total != 1 {
			t.Errorf("the queries report %d trips, the breakers tripped %d times, want 1 and 1", sum, total)
		}
		if got := df.Storage.Store().Totals().BreakerTrips; got != sum {
			t.Errorf("store total holds %d trips, the accounts %d", got, sum)
		}
	})

	t.Run("engine", func(t *testing.T) {
		df := buildSelfHealEngine(t, 1, data)
		reg := metrics.New()
		df.Metrics = reg
		df.EnableResilience(policy())
		_, df.Faults = killPoint(t, df, q, 3)
		res, err := df.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Failovers != 1 || res.Stats.BreakerTrips != 1 || res.Stats.Scan.BreakerTrips != 0 {
			t.Errorf("failovers %d, trips %d (store account %d); want 1, 1 (0)",
				res.Stats.Failovers, res.Stats.BreakerTrips, res.Stats.Scan.BreakerTrips)
		}
		if total := reg.Snapshot(time.Now()).Counters["resilience.breaker.trips"]; total != 1 {
			t.Errorf("breakers tripped %d times, want 1", total)
		}
	})
}
