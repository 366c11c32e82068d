package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/metrics"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

func telemetryQuery(cfg workload.LineitemConfig) *plan.Query {
	return plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.1)).
		WithGroupBy(workload.PricingSummary())
}

func TestTenantContext(t *testing.T) {
	if got := TenantFrom(nil); got != DefaultTenant { //nolint:staticcheck // nil ctx is the documented off state
		t.Fatalf("TenantFrom(nil) = %q, want %q", got, DefaultTenant)
	}
	if got := TenantFrom(context.Background()); got != DefaultTenant {
		t.Fatalf("TenantFrom(background) = %q, want %q", got, DefaultTenant)
	}
	ctx := WithTenant(context.Background(), "alpha")
	if got := TenantFrom(ctx); got != "alpha" {
		t.Fatalf("TenantFrom = %q, want alpha", got)
	}
	// Empty tenant is a no-op tag, not an empty label.
	if got := TenantFrom(WithTenant(context.Background(), "")); got != DefaultTenant {
		t.Fatalf("TenantFrom(empty tag) = %q, want %q", got, DefaultTenant)
	}
}

// TestPublishAttribution checks the engine-level invariants the registry
// promises: per-tenant counter sums reproduce fleet totals exactly, the
// engine label separates the engines, and query latency lands on both
// the histogram and the SLO tracker.
func TestPublishAttribution(t *testing.T) {
	df, vo, cfg := newEngines(t)
	reg := metrics.New()
	df.Metrics = reg
	vo.Metrics = reg
	slo := metrics.NewSLOTracker(time.Second, 0.99)
	df.SetSLO(slo, 0)

	q := telemetryQuery(cfg)
	tenants := []string{"alpha", "beta", "alpha", DefaultTenant}
	for _, tenant := range tenants {
		if _, err := df.Execute(WithTenant(context.Background(), tenant), q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vo.Execute(WithTenant(context.Background(), "beta"), q); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot(time.Now())
	total := int64(len(tenants)) + 1
	if got := snap.Counters["fleet.queries"]; got != total {
		t.Fatalf("fleet.queries = %d, want %d", got, total)
	}
	if got := snap.Counters[metrics.Labels("engine.queries", "engine", "dataflow")]; got != int64(len(tenants)) {
		t.Fatalf("engine.queries{dataflow} = %d, want %d", got, len(tenants))
	}
	if got := snap.Counters[metrics.Labels("engine.queries", "engine", "volcano")]; got != 1 {
		t.Fatalf("engine.queries{volcano} = %d, want 1", got)
	}
	for tenant, want := range map[string]int64{"alpha": 2, "beta": 2, DefaultTenant: 1} {
		if got := snap.Counters[metrics.Labels("tenant.queries", "tenant", tenant)]; got != want {
			t.Fatalf("tenant.queries{%s} = %d, want %d", tenant, got, want)
		}
	}
	// Exactness: summing every tenant series reproduces the fleet series.
	for _, series := range []string{"queries", "busy.vns", "bytes"} {
		var sum int64
		for _, tenant := range []string{"alpha", "beta", DefaultTenant} {
			sum += snap.Counters[metrics.Labels("tenant."+series, "tenant", tenant)]
		}
		if fleet := snap.Counters["fleet."+series]; sum != fleet {
			t.Fatalf("tenant %s sum %d != fleet %d", series, sum, fleet)
		}
	}
	if got := reg.Histogram("query.wall.ns").Count(); got != total {
		t.Fatalf("query.wall.ns count = %d, want %d", got, total)
	}
	if good, bad := slo.Window(time.Now()); good+bad != int64(len(tenants)) {
		t.Fatalf("SLO observed %d, want %d (dataflow only)", good+bad, len(tenants))
	}
}

// Attribution stays exact when queries overlap: after one solo query and
// eight concurrent copies of it from two tenants, the fleet's bytes and
// busy time are nine times the solo query's, each tenant's are its count
// times the solo query's, and the tenants sum to the fleet. Sums that
// merely agree with each other prove nothing — neighbours' work inflates
// both sides alike.
func TestTenantAttributionUnderConcurrency(t *testing.T) {
	df, _, cfg := newEngines(t)
	reg := metrics.New()
	df.Metrics = reg
	variants, err := df.Plan(telemetryQuery(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tenant string) {
		if _, err := df.ExecutePlan(WithTenant(context.Background(), tenant), variants[0]); err != nil {
			t.Error(err)
		}
	}
	run("alpha")
	solo := reg.Snapshot(time.Now()).Counters
	if solo["fleet.bytes"] == 0 || solo["fleet.busy.vns"] == 0 {
		t.Fatalf("the solo query published nothing: %v", solo)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run([]string{"alpha", "beta"}[i%2])
		}()
	}
	wg.Wait()

	got := reg.Snapshot(time.Now()).Counters
	for _, series := range []string{"queries", "bytes", "busy.vns"} {
		one := solo["fleet."+series]
		if fleet := got["fleet."+series]; fleet != 9*one {
			t.Errorf("fleet.%s = %d after nine queries, want 9 x the solo query's %d", series, fleet, one)
		}
		alpha := got[metrics.Labels("tenant."+series, "tenant", "alpha")]
		beta := got[metrics.Labels("tenant."+series, "tenant", "beta")]
		if alpha != 5*one || beta != 4*one {
			t.Errorf("tenant.%s: alpha %d, beta %d, want 5 x and 4 x the solo query's %d", series, alpha, beta, one)
		}
		if alpha+beta != got["fleet."+series] {
			t.Errorf("tenant.%s sums to %d, fleet.%s is %d", series, alpha+beta, series, got["fleet."+series])
		}
	}
}

// TestLinkUtilIsTheQuerysOwn pins fabric.link.util to one query's busy
// time over its own makespan: repeating the query on the same engine
// leaves every link's gauge where the first run put it, instead of
// creeping to 1 as the links' lifetime busy time grows.
func TestLinkUtilIsTheQuerysOwn(t *testing.T) {
	df, _, cfg := newEngines(t)
	reg := metrics.New()
	df.Metrics = reg
	q := telemetryQuery(cfg)
	utils := func() map[string]float64 {
		if _, err := df.Execute(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for name, v := range reg.Snapshot(time.Now()).Gauges {
			if strings.HasPrefix(name, "fabric.link.util") {
				out[name] = v
			}
		}
		return out
	}
	solo := utils()
	utils()
	third := utils()
	busy := 0
	for name, want := range solo {
		if got := third[name]; got != want {
			t.Errorf("%s = %v after three identical queries, want the solo query's %v", name, got, want)
		}
		if want > 0 && want < 1 {
			busy++
		}
	}
	if busy == 0 {
		t.Errorf("no link reports a utilization strictly between 0 and 1: %v", solo)
	}
}

// TestPublisherRebuildsOnRegistrySwap covers the cache path: assigning
// the Metrics field again must publish to the new registry, and
// clearing it must stop publishing.
func TestPublisherRebuildsOnRegistrySwap(t *testing.T) {
	df, _, cfg := newEngines(t)
	q := telemetryQuery(cfg)

	first := metrics.New()
	df.Metrics = first
	if _, err := df.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	second := metrics.New()
	df.Metrics = second
	if _, err := df.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if got := first.Counter("fleet.queries").Value(); got != 1 {
		t.Fatalf("first registry fleet.queries = %d, want 1", got)
	}
	if got := second.Counter("fleet.queries").Value(); got != 1 {
		t.Fatalf("second registry fleet.queries = %d, want 1", got)
	}
	df.Metrics = nil
	if _, err := df.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if got := second.Counter("fleet.queries").Value(); got != 1 {
		t.Fatalf("nil registry still published: fleet.queries = %d, want 1", got)
	}
}

// On a manual clock a query's wall latency is what the clock advanced:
// 0 when nothing sleeps, and exactly the store's slept service times
// once every replica read sleeps BaseLatency. The SLO tracker and the
// registry's histogram both receive it.
func TestWallLatencyIsWhatTheClockAdvanced(t *testing.T) {
	df := lifecycleEngine(t, 4000, 1000)
	clk := sim.NewManualClock(time.Now())
	reg := metrics.New()
	slo := metrics.NewSLOTracker(time.Nanosecond, 0.99)
	df.Clock, df.Metrics, df.SLO = clk, reg, slo
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	wall := reg.Histogram("query.wall.ns")

	if _, err := df.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if wall.Count() != 1 || wall.Sum() != 0 {
		t.Errorf("registry got %d latencies summing to %dns, want one of 0", wall.Count(), wall.Sum())
	}
	if good, bad := slo.Window(clk.Now()); good != 1 || bad != 0 {
		t.Errorf("SLO window %d good / %d bad against a 1ns target, want the 0 latency good", good, bad)
	}

	df.Storage.Store().BaseLatency = time.Minute
	before := clk.Now()
	if _, err := df.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	advanced := clk.Since(before)
	if advanced != 4*time.Minute {
		t.Errorf("four segment reads advanced the clock %v, want 4m", advanced)
	}
	if wall.Count() != 2 || wall.Sum() != advanced.Nanoseconds() {
		t.Errorf("registry got %d latencies summing to %dns, want the second %dns", wall.Count(), wall.Sum(), advanced.Nanoseconds())
	}
	// The first query finished 4m ago, out of the tracker's 30s window.
	if good, bad := slo.Window(clk.Now()); good != 0 || bad != 1 {
		t.Errorf("SLO window %d good / %d bad, want only the %v latency, bad", good, bad, advanced)
	}
}
