package core

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// Seeded chaos: under a low rate of mixed injected storage faults, every
// query must either succeed with the correct answer or fail with a typed
// error — never return wrong results. At the rates used here (1%
// transient, 0.5% corrupt, 0.5% missing, two replicas, bounded retry)
// recovery must in fact absorb everything: 100% success.
func TestChaosTransientStorageFaults(t *testing.T) {
	cfg := workload.DefaultLineitemConfig(testRows)
	data := workload.GenLineitem(cfg)

	build := func() *DataFlowEngine {
		df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		df.Storage.Store().SetReplicas(2) // before Load so segments replicate
		df.Storage.Store().RetryBase = 0  // no real sleeping in tests
		df.Storage.SegmentRows = 1000     // 20 segments => many fault draws per query
		if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
			t.Fatal(err)
		}
		if err := df.Load("lineitem", data); err != nil {
			t.Fatal(err)
		}
		return df
	}

	// Clean engine computes the expected answers once.
	clean := build()
	queries := []*plan.Query{
		plan.NewQuery("lineitem").WithCount(),
		plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary()),
		plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.1)).
			WithProjection(workload.LExtendedPrice),
	}
	expected := make([]map[string]int, len(queries)) // rendered row -> count
	for i, q := range queries {
		res, err := clean.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = rowHistogram(res)
	}

	df := build()
	inj := faults.New(0xC4A05)
	inj.Arm(faults.Point{Kind: faults.TransientRead, Prob: 0.01})
	inj.Arm(faults.Point{Kind: faults.CorruptBlob, Prob: 0.005})
	inj.Arm(faults.Point{Kind: faults.ObjectMissing, Prob: 0.005})
	df.Faults = inj

	const workers, rounds = 8, 4
	var totalRetries, totalFallbacks atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
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
				totalRetries.Add(res.Stats.Scan.Retries + res.Stats.QueryRetries)
				totalFallbacks.Add(res.Stats.Scan.ReplicaFallbacks)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query under 1%% fault rate failed: %v", err)
	}
	if totalRetries.Load()+totalFallbacks.Load() == 0 {
		t.Error("no recovery work recorded — faults were not exercised")
	}
	if fired := inj.Fires(); fired == 0 {
		t.Error("injector never fired")
	}
	if df.Scheduler.ActiveCount() != 0 {
		t.Error("admissions leaked after chaos")
	}
}

// Gray-failure chaos: error faults and gray slowness together, with the
// full defense stack live — health-ranked replicas, hedged reads,
// speculation, breakers and the retry budget. Every query must still
// return the exact answer; the defenses may only change *when*, never
// *what*. Runs with concurrent queries so hedge/speculation teardown
// races are exercised under -race.
func TestChaosGrayFailureDefenses(t *testing.T) {
	cfg := workload.DefaultLineitemConfig(testRows)
	data := workload.GenLineitem(cfg)

	build := func() *DataFlowEngine {
		df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		df.Workers = 2
		df.Storage.Store().SetReplicas(2)
		df.Storage.Store().RetryBase = 0
		df.Storage.SegmentRows = 2000 // 10 segments per query
		if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
			t.Fatal(err)
		}
		if err := df.Load("lineitem", data); err != nil {
			t.Fatal(err)
		}
		return df
	}

	clean := build()
	queries := []*plan.Query{
		plan.NewQuery("lineitem").WithCount(),
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

	df := build()
	store := df.Storage.Store()
	store.BaseLatency = 100 * time.Microsecond
	inj := faults.New(0x6A4)
	inj.Arm(faults.Point{Kind: faults.TransientRead, Prob: 0.01})
	inj.Arm(faults.Point{Kind: faults.CorruptBlob, Prob: 0.005})
	inj.Arm(faults.Point{Kind: faults.DegradedDevice, Target: "store/r0", Prob: 0.3, Severity: 8})
	inj.Arm(faults.Point{Kind: faults.JitterLink, Prob: 0.5, Severity: 1})
	df.Faults = inj
	df.EnableResilience(resilience.NewPolicy())

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (w + r) % len(queries)
				res, err := df.ExecuteOn(context.Background(), queries[qi], w%2)
				if err != nil {
					errs <- err
					return
				}
				got := rowHistogram(res)
				for k, n := range expected[qi] {
					if got[k] != n {
						t.Errorf("worker %d query %d: row %q count %d, want %d",
							w, qi, k, got[k], n)
						return
					}
				}
				if len(got) != len(expected[qi]) {
					t.Errorf("worker %d query %d: %d distinct rows, want %d",
						w, qi, len(got), len(expected[qi]))
					return
				}
				if res.Stats.Scan.HedgeBytes < 0 || res.Stats.Scan.SpeculativeBytes < 0 {
					t.Errorf("negative defense accounting: %+v", res.Stats)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query under gray-failure chaos failed: %v", err)
	}
	if inj.Fires() == 0 {
		t.Error("injector never fired")
	}
	if df.Scheduler.ActiveCount() != 0 {
		t.Error("admissions leaked after chaos")
	}
}

// rowHistogram counts result rows by their full rendered form, for
// order-insensitive comparison that also catches duplicated rows.
func rowHistogram(r *Result) map[string]int {
	out := make(map[string]int)
	for _, b := range r.Batches {
		for i := 0; i < b.NumRows(); i++ {
			var key string
			for _, v := range b.Row(i) {
				key += v.String() + "\x00"
			}
			out[key]++
		}
	}
	return out
}

// Killing the device hosting a pipeline stage mid-query must trigger
// engine failover: the plan is re-enumerated without the device and the
// query completes on the degraded placement with the correct answer.
func TestDeviceKillMidQueryFailsOver(t *testing.T) {
	df, _, _ := newEngines(t)
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())

	clean, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := rowHistogram(clean)

	// Kill whichever non-CPU device the admitted plan runs a pipeline
	// stage on (sites between storage and CPU host flow stages).
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
	if clean.Stats.DeviceBusy[target] == 0 {
		t.Fatalf("the clean run charged %s nothing, so a run that avoids it cannot be told apart", target)
	}

	inj := faults.New(0xDEAD)
	inj.Arm(faults.Point{Kind: faults.DeviceOffline, Target: target, Prob: 1, Budget: 1})
	df.Faults = inj

	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("query did not survive killing %s: %v", target, err)
	}
	if res.Stats.Failovers < 1 {
		t.Errorf("Failovers = %d, want >= 1", res.Stats.Failovers)
	}
	if !res.Stats.DegradedPlacement {
		t.Error("DegradedPlacement not set after failover")
	}
	if res.Stats.RecoveryBytes == 0 && res.Stats.RecoveryTime == 0 {
		t.Error("abandoned attempt recorded no recovery waste")
	}
	got := rowHistogram(res)
	if len(got) != len(want) {
		t.Fatalf("failover answer has %d rows, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("failover answer differs at %q", k)
		}
	}
	if !df.Cluster.MustDevice(target).IsOffline() {
		t.Errorf("%s not marked offline", target)
	}

	// The device is still dead: follow-up queries plan around it without
	// needing a failover.
	res2, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Failovers != 0 {
		t.Errorf("follow-up query failed over %d times; planner should avoid the dead device", res2.Stats.Failovers)
	}
	if busy := res2.Stats.DeviceBusy[target]; busy != 0 {
		t.Errorf("follow-up query charged dead %s %v of work", target, busy)
	}
}

// Killing any device the top-ranked variant runs a pipeline stage on
// marks it offline, and the offline flag alone steers what follows: the
// recovered query re-plans around the device once, and the next query
// plans around it without failing over.
func TestRecoveryPlansAroundEachDeadStageHost(t *testing.T) {
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	df, _, _ := newEngines(t)
	clean, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := rowHistogram(clean)
	variants, err := df.Plan(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	best := variants[0]
	var hosts []string
	for _, pl := range best.Placements {
		if pl.SiteIdx > 0 && pl.SiteIdx < len(best.Path.Sites)-1 {
			if name := best.Path.Sites[pl.SiteIdx].Device.Name; !slices.Contains(hosts, name) {
				hosts = append(hosts, name)
			}
		}
	}
	if len(hosts) == 0 {
		t.Fatalf("variant %q places no stage on an intermediate device", best.Variant)
	}

	for _, target := range hosts {
		t.Run(target, func(t *testing.T) {
			df, _, _ := newEngines(t)
			inj := faults.New(0xDEAD)
			inj.Arm(faults.Point{Kind: faults.DeviceOffline, Target: target, Prob: 1, Budget: 1})
			df.Faults = inj

			res, err := df.Execute(context.Background(), q)
			if err != nil {
				t.Fatalf("query did not survive killing %s: %v", target, err)
			}
			if !maps.Equal(rowHistogram(res), want) {
				t.Error("recovered answer differs from the clean run's")
			}
			if res.Stats.Failovers != 1 {
				t.Errorf("Failovers = %d, want 1", res.Stats.Failovers)
			}
			if busy := res.Stats.DeviceBusy[target]; busy != 0 {
				t.Errorf("the recovered answer charged dead %s %v of work", target, busy)
			}
			recovered := mustPlanned(t, df, q, res.Stats.Variant)
			for _, pl := range recovered.Placements {
				if recovered.Path.Sites[pl.SiteIdx].Device.Name == target {
					t.Errorf("recovered variant %q still places %v on dead %s", recovered.Variant, pl.Op, target)
				}
			}

			res2, err := df.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Stats.Failovers != 0 {
				t.Errorf("follow-up query failed over %d times; the planner should avoid dead %s", res2.Stats.Failovers, target)
			}
		})
	}
}

// mustPlanned re-enumerates and returns the named variant.
func mustPlanned(t *testing.T, df *DataFlowEngine, q *plan.Query, variant string) *plan.Physical {
	t.Helper()
	variants, err := df.Plan(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		if v.Variant == variant {
			return v
		}
	}
	t.Fatalf("variant %q not enumerated", variant)
	return nil
}

// With every accelerator on the path dead, planning must degrade to the
// CPU-only placement and still answer correctly.
func TestAllAcceleratorsDeadDegradesToCPU(t *testing.T) {
	df, _, _ := newEngines(t)
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	clean, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		fabric.DevStorageProc, fabric.DevStorageNIC,
		fabric.ComputeDev(0, "nic"), fabric.ComputeDev(0, "nma"),
	} {
		df.Cluster.MustDevice(name).SetOffline(true)
	}
	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("CPU-only degradation failed: %v", err)
	}
	if res.Stats.Variant != "cpu-only" {
		t.Errorf("variant = %q, want cpu-only with all accelerators dead", res.Stats.Variant)
	}
	if res.Stats.Failovers != 0 {
		t.Errorf("planned degradation should need no failover, got %d", res.Stats.Failovers)
	}
	want, got := rowHistogram(clean), rowHistogram(res)
	if len(want) != len(got) {
		t.Fatalf("degraded answer has %d rows, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("degraded answer differs at %q", k)
		}
	}
}
