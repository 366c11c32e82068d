package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/obs/metrics"
	"repro/internal/plan"
	"repro/internal/repair"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wiring"
	"repro/internal/workload"
)

// The optional subsystems are declared once. No layer struct may hold a
// metrics registry, an SLO tracker, a resilience policy (or one of its
// parts), a fault injector or a clock (a *sim.Clock or a func() time.Time)
// of its own — a copy is a thing a setter can forget — and
// wiring.Services holds exactly the five. The storage server and the
// repair controller hold no wiring point either: they reach the store's.
func TestOnlyServicesHoldsTheOptionalSubsystems(t *testing.T) {
	service := map[reflect.Type]bool{
		reflect.TypeOf((*metrics.Registry)(nil)):      true,
		reflect.TypeOf((*metrics.SLOTracker)(nil)):    true,
		reflect.TypeOf((*resilience.Policy)(nil)):     true,
		reflect.TypeOf((*resilience.Tracker)(nil)):    true,
		reflect.TypeOf((*resilience.BreakerSet)(nil)): true,
		reflect.TypeOf((*faults.Injector)(nil)):       true,
		reflect.TypeOf((*sim.Clock)(nil)):             true,
		reflect.TypeOf((func() time.Time)(nil)):       true,
	}
	point := reflect.TypeOf((*wiring.Services)(nil))
	holdsPoint := map[reflect.Type]bool{
		reflect.TypeOf(engineBase{}):          true,
		reflect.TypeOf(DataFlowEngine{}):      false, // through engineBase
		reflect.TypeOf(VolcanoEngine{}):       false, // through engineBase
		reflect.TypeOf(storage.Server{}):      false, // through its store
		reflect.TypeOf(storage.ObjectStore{}): true,
		reflect.TypeOf(sched.Scheduler{}):     true,
		reflect.TypeOf(repair.Controller{}):   false, // through its store
		reflect.TypeOf(flow.Pipeline{}):       true,
	}
	for layer, want := range holdsPoint {
		points := 0
		for i := 0; i < layer.NumField(); i++ {
			f := layer.Field(i)
			if service[f.Type] {
				t.Errorf("%v.%s is a %v of the layer's own: read it from wiring.Services", layer, f.Name, f.Type)
			}
			if f.Type == point {
				points++
			}
		}
		if (points == 1) != want || points > 1 {
			t.Errorf("%v holds %d *wiring.Services, want holder=%v", layer, points, want)
		}
	}

	svc := reflect.TypeOf(wiring.Services{})
	var held []string
	for i := 0; i < svc.NumField(); i++ {
		held = append(held, svc.Field(i).Type.String())
	}
	want := "*metrics.Registry *resilience.Policy *metrics.SLOTracker *faults.Injector *sim.Clock"
	if got := strings.Join(held, " "); got != want {
		t.Errorf("wiring.Services holds %s, want %s", got, want)
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// Whatever order the four subsystems are assigned in, and whether the
// repair controller was built before or after, every layer reads the
// same four, and the clock assigned up front: the engine, the store and
// the scheduler by the pointer they hold, and the layers that hold none
// by what they do with them — the
// storage server counts its scans on the registry; a run's pipeline
// registers its gauges there, feeds stage latencies to the policy's
// health tracker and fires the injector's device fault; the repair
// controller leaves a lost replica alone while the policy's breaker is
// closed, yields to the burning SLO and counts that on the registry.
func TestEveryLayerReadsTheSameServicesInAnyOrder(t *testing.T) {
	data := workload.GenLineitem(workload.DefaultLineitemConfig(400))
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())

	for _, order := range permutations(4) {
		for _, repairFirst := range []bool{true, false} {
			name := fmt.Sprintf("dataflow/%v/repairFirst=%v", order, repairFirst)
			df := buildSelfHealEngine(t, 2, data)
			store := df.Storage.Store()

			want := wiring.Services{
				Metrics:    metrics.New(),
				Resilience: resilience.NewPolicy(),
				SLO:        metrics.NewSLOTracker(time.Millisecond, 0.99),
				Clock:      sim.NewManualClock(time.Now()),
			}
			_, want.Faults = killPoint(t, df, q, 0)
			df.Clock = want.Clock
			assign := []func(){
				func() { df.Metrics = want.Metrics },
				func() { df.EnableResilience(want.Resilience) },
				func() { df.SetSLO(want.SLO, 0) },
				func() { df.Faults = want.Faults },
			}
			var ctrl *repair.Controller
			if repairFirst {
				ctrl = df.EnableRepair(repair.Config{BurnMax: 1, Interval: time.Hour})
			}
			for _, i := range order {
				assign[i]()
			}
			if !repairFirst {
				ctrl = df.EnableRepair(repair.Config{BurnMax: 1, Interval: time.Hour})
			}

			for layer, got := range map[string]*wiring.Services{
				"engine": df.Services, "store": store.Services(), "scheduler": df.Scheduler.Services(),
			} {
				if got != df.Services || *got != want {
					t.Errorf("%s: %s reads %+v, want the engine's %+v", name, layer, *got, want)
				}
			}

			res, err := df.Execute(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			snap := want.Metrics.Snapshot(want.Clock.Now())
			if snap.Counters["scan.count"] == 0 {
				t.Errorf("%s: the storage server counted no scan on the registry", name)
			}
			if _, ok := snap.Gauges["flow.workers.busy"]; !ok {
				t.Errorf("%s: the pipeline registered no gauge on the registry", name)
			}
			if keys := strings.Join(want.Resilience.Health.Keys(), " "); !strings.Contains(keys, "stage/") {
				t.Errorf("%s: the pipeline fed no stage latency to the health tracker (keys: %s)", name, keys)
			}
			if want.Faults.Fires() != 1 || res.Stats.Failovers != 1 {
				t.Errorf("%s: the pipeline fired %d device faults (%d failovers), want 1 and 1",
					name, want.Faults.Fires(), res.Stats.Failovers)
			}

			// The controller: replica 1 is lost but reads have not opened
			// its breaker, and the foreground misses its objective. It
			// paces on the wall clock here: on the manual one its yields
			// would not wait, and the burn would age out of the window
			// before the context expired.
			df.Clock = nil
			store.FailReplica(1)
			for i := 0; i < 10; i++ {
				want.SLO.Observe(time.Now(), time.Second)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			ctrl.Run(ctx)
			cancel()
			rep := ctrl.Stats()
			if rep.DeadDeclared != 0 {
				t.Errorf("%s: the controller condemned a replica whose breaker is closed", name)
			}
			if rep.Scrubbed != 0 || want.Metrics.Counter("repair.deferred.burn").Value() == 0 {
				t.Errorf("%s: the controller scrubbed %d blobs under a burning SLO and counted %d deferrals, want 0 and some",
					name, rep.Scrubbed, want.Metrics.Counter("repair.deferred.burn").Value())
			}
			if _, ok := want.Metrics.Snapshot(time.Now()).Gauges["durability.at_risk.objects"]; !ok {
				t.Errorf("%s: the controller published no durability gauge on the registry", name)
			}
		}

		// The baseline has the store and the server only.
		vo := NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), sim.MB)
		want := wiring.Services{
			Metrics:    metrics.New(),
			Resilience: resilience.NewPolicy(),
			SLO:        metrics.NewSLOTracker(time.Second, 0.99),
			Faults:     faults.New(1),
			Clock:      sim.NewManualClock(time.Now()),
		}
		vo.Clock = want.Clock
		assign := []func(){
			func() { vo.Metrics = want.Metrics },
			func() { vo.Resilience = want.Resilience },
			func() { vo.SLO = want.SLO },
			func() { vo.Faults = want.Faults },
		}
		for _, i := range order {
			assign[i]()
		}
		if got := vo.Storage.Store().Services(); got != vo.Services || *got != want {
			t.Errorf("volcano/%v: store reads %+v, want the engine's %+v", order, *got, want)
		}
	}
}

// One assignment arms every layer: a transient read fault strikes in
// the object store and a device fault in the pipeline, from the one
// injector on the engine.
func TestOneInjectorArmsStoreAndPipeline(t *testing.T) {
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	df := lifecycleEngine(t, 4000, 1000)
	df.Storage.Store().RetryBase = 0
	_, inj := killPoint(t, df, q, 2)
	inj.Arm(faults.Point{Kind: faults.TransientRead, Prob: 1, Budget: 1})
	df.Faults = inj

	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	fired := map[faults.Kind]int{}
	for _, ev := range inj.Events() {
		fired[ev.Kind]++
	}
	if fired[faults.DeviceOffline] != 1 || fired[faults.TransientRead] != 1 {
		t.Errorf("fired %v, want one device-offline and one transient-read", fired)
	}
	if res.Stats.Failovers != 1 || res.Stats.Scan.Retries != 1 {
		t.Errorf("failovers=%d retries=%d, want the pipeline's failover and the store's retry",
			res.Stats.Failovers, res.Stats.Scan.Retries)
	}
}
