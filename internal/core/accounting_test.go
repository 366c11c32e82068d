package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The oracle for per-query store accounting: eight identical queries
// run at once over a table whose reads retry, fall back and hedge, next
// to one query over a table nothing is wrong with, all on one store.
// Every query's account is its own — the fault-free one reports nothing
// at all — and the accounts sum to the store's lifetime total, counter
// by counter. CI runs this with -race -count=2.
func TestConcurrentQueriesOwnTheirStoreAccounts(t *testing.T) {
	cfg := workload.DefaultLineitemConfig(testRows)
	data := workload.GenLineitem(cfg)

	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Workers = 2
	store := df.Storage.Store()
	store.RetryBase = 0
	store.BaseLatency = 200 * time.Microsecond
	df.Storage.SegmentRows = 2000 // 10 segments per table
	// calm is stored once: with no second replica its reads cannot hedge
	// or fall back however a busy host stretches them, so its query has
	// no store work of its own to report.
	for table, replicas := range map[string]int{"calm": 1, "lineitem": 2} {
		store.SetReplicas(replicas)
		if err := df.CreateTable(table, workload.LineitemSchema()); err != nil {
			t.Fatal(err)
		}
		if err := df.Load(table, data); err != nil {
			t.Fatal(err)
		}
	}

	// Faults strike lineitem's objects only. Replica 0 serves them 100 ms
	// late, far past the 20 ms hedge delay: while it ranks first, every
	// read of lineitem hedges.
	inj := faults.New(0xACC7)
	inj.Arm(faults.Point{Kind: faults.TransientRead, Target: "lineitem/", Prob: 0.2})
	inj.Arm(faults.Point{Kind: faults.DegradedDevice, Target: "store/r0/lineitem/", Prob: 1, Severity: 500})
	df.Faults = inj
	pol := resilience.NewPolicy()
	pol.HedgeMinDelay = 20 * time.Millisecond
	// Never deny a retry: a denied one could fail a read, and a failed
	// query's account has nobody to report it.
	pol.Budget = resilience.NewBudget(1, 4096)
	df.EnableResilience(pol)

	query := func(table string) *plan.Query {
		return plan.NewQuery(table).
			WithFilter(workload.SelectivityFilter(cfg, 0.1)).
			WithProjection(workload.LExtendedPrice)
	}
	if before := store.Totals(); before != (storage.ReadStats{}) {
		t.Fatalf("loading charged the store's read account: %+v", before)
	}

	const queries = 8
	accounts := make([]storage.ReadStats, queries+1) // the last is calm's
	var wg sync.WaitGroup
	for i := range accounts {
		table := "lineitem"
		if i == queries {
			table = "calm"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := df.Execute(context.Background(), query(table))
			if err != nil {
				t.Errorf("query %d over %s: %v", i, table, err)
				return
			}
			accounts[i] = res.Stats.Scan.ReadStats
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if calm := accounts[queries]; calm != (storage.ReadStats{}) {
		t.Errorf("the fault-free query was charged its neighbours' work: %+v", calm)
	}
	var sum storage.ReadStats
	for _, a := range accounts {
		sum.Add(a)
	}
	if total := store.Totals(); sum != total {
		t.Errorf("the queries' accounts do not sum to the store's total:\n sum   %+v\n total %+v", sum, total)
	}
	if sum.Retries == 0 || sum.HedgedReads == 0 {
		t.Errorf("the faults never bit, so the sums prove nothing: %+v", sum)
	}
	if got := pol.Budget.Exhausted(); sum.RetryBudgetExhausted != got {
		t.Errorf("accounts report %d budget denials, the budget counted %d", sum.RetryBudgetExhausted, got)
	}
}

// fabricStats is the part of ExecStats read off the query's account of
// device and link work.
type fabricStats struct {
	MovedBytes           sim.Bytes
	LinkBytes            map[string]sim.Bytes
	DeviceBusy, LinkBusy map[string]sim.VTime
	CPUBytes             sim.Bytes
	CPUBusy, SimTime     sim.VTime
}

func fabricOf(st ExecStats) fabricStats {
	return fabricStats{st.MovedBytes, st.LinkBytes, st.DeviceBusy, st.LinkBusy, st.CPUBytes, st.CPUBusy, st.SimTime}
}

// besideNeighbours is the oracle for per-query device and link
// accounting: same runs once alone, then eight times at once next to one
// run of other, all on the engine that owns cluster c. It returns the
// solo run's stats and the nine concurrent runs' (other's last) after
// checking that the nine accounts sum to what the cluster's lifetime
// meters gained: payload bytes on every link and, with devices set
// (width 1, where a device's effective busy time is its busy time), busy
// time on every device.
func besideNeighbours(t *testing.T, c *fabric.Cluster, devices bool, same, other func() (*Result, error)) (ExecStats, []ExecStats) {
	t.Helper()
	soloRes, err := same()
	if err != nil {
		t.Fatal(err)
	}
	solo := soloRes.Stats
	if solo.MovedBytes == 0 || len(solo.DeviceBusy) == 0 {
		t.Fatalf("the solo run charged nothing, so equality proves nothing: %+v", solo)
	}
	c.ResetMeters()

	const copies = 8
	stats := make([]ExecStats, copies+1)
	var wg sync.WaitGroup
	for i := range stats {
		run := same
		if i == copies {
			run = other
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := run()
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			stats[i] = res.Stats
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if reflect.DeepEqual(fabricOf(stats[copies]), fabricOf(solo)) {
		t.Fatal("the neighbour charged exactly what the eight did; pick a different query")
	}
	for _, l := range c.Links() {
		var sum sim.Bytes
		for _, st := range stats {
			sum += st.LinkBytes[l.Name]
		}
		if got := l.Meter.Bytes(); sum != got {
			t.Errorf("link %s: the accounts sum to %v, its meter gained %v", l.Name, sum, got)
		}
	}
	for _, d := range c.Devices() {
		if !devices {
			break
		}
		var sum sim.VTime
		for _, st := range stats {
			sum += st.DeviceBusy[d.Name]
		}
		if got := d.Meter.Busy(); sum != got {
			t.Errorf("device %s: the accounts sum to %v busy, its meter gained %v", d.Name, sum, got)
		}
	}
	return solo, stats
}

// assertEachEqualsSolo requires every one of the identical concurrent
// runs (all but the last of stats) to report exactly the solo run's
// device and link work.
func assertEachEqualsSolo(t *testing.T, solo ExecStats, stats []ExecStats) {
	t.Helper()
	for i, st := range stats[:len(stats)-1] {
		if got, want := fabricOf(st), fabricOf(solo); !reflect.DeepEqual(got, want) {
			t.Errorf("concurrent run %d was charged its neighbours' work:\n got  %+v\n solo %+v", i, got, want)
		}
	}
}

// Eight identical executions at once, next to one different query: every
// one reports exactly what it reports alone — bytes, busy times and
// makespan, per device and per link — and the nine accounts sum to what
// the shared meters gained. CI runs this with -race -count=2.
func TestConcurrentQueriesOwnTheirFabricAccounts(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("dataflow/ExecutePlan/workers=%d", workers), func(t *testing.T) {
			df, _, cfg := newEngines(t)
			df.Workers = workers
			full := mustPlanned(t, df, telemetryQuery(cfg), "full-offload")
			cpuOnly := mustPlanned(t, df, plan.NewQuery("lineitem").WithProjection(workload.LExtendedPrice), "cpu-only")
			solo, stats := besideNeighbours(t, df.Cluster, workers == 1,
				func() (*Result, error) { return df.ExecutePlan(ctx, full) },
				func() (*Result, error) { return df.ExecutePlan(ctx, cpuOnly) })
			assertEachEqualsSolo(t, solo, stats)
		})
	}

	t.Run("dataflow/Execute", func(t *testing.T) {
		// Admission rate-limits links and steers placement by what is
		// already running, so busy times and even the chosen variant may
		// differ from the solo run: the bytes of a run that chose the
		// solo run's variant are the solo run's, and the sums still hold.
		df, _, cfg := newEngines(t)
		q := telemetryQuery(cfg)
		solo, stats := besideNeighbours(t, df.Cluster, false,
			func() (*Result, error) { return df.Execute(ctx, q) },
			func() (*Result, error) {
				return df.Execute(ctx, plan.NewQuery("lineitem").WithProjection(workload.LExtendedPrice))
			})
		for i, st := range stats[:len(stats)-1] {
			if st.Variant != solo.Variant {
				continue
			}
			if st.MovedBytes != solo.MovedBytes || st.CPUBytes != solo.CPUBytes || !reflect.DeepEqual(st.LinkBytes, solo.LinkBytes) {
				t.Errorf("admitted run %d moved %v (cpu %v, links %v), alone it moves %v (cpu %v, links %v)",
					i, st.MovedBytes, st.CPUBytes, st.LinkBytes, solo.MovedBytes, solo.CPUBytes, solo.LinkBytes)
			}
		}
	})

	t.Run("volcano/Execute", func(t *testing.T) {
		// A buffer-pool miss belongs to whoever fetched, so the pool is
		// warmed first: every run below hits on every page.
		_, vo, cfg := newEngines(t)
		q, neighbour := telemetryQuery(cfg), plan.NewQuery("lineitem").WithProjection(workload.LExtendedPrice)
		for _, warm := range []*plan.Query{q, neighbour} {
			if _, err := vo.Execute(ctx, warm); err != nil {
				t.Fatal(err)
			}
		}
		solo, stats := besideNeighbours(t, vo.Cluster, true,
			func() (*Result, error) { return vo.Execute(ctx, q) },
			func() (*Result, error) { return vo.Execute(ctx, neighbour) })
		assertEachEqualsSolo(t, solo, stats)
	})

	jq := JoinQuery{Probe: "lineitem", Build: "orders", ProbeKey: workload.LOrderKey, BuildKey: workload.OOrderKey}
	t.Run("dataflow/ExecuteJoin", func(t *testing.T) {
		df, _ := setupJoinEngines(t, 500, 4000)
		solo, stats := besideNeighbours(t, df.Cluster, true,
			func() (*Result, error) { return df.ExecuteJoin(ctx, jq) },
			func() (*Result, error) {
				return df.ExecuteGroupByDistributed(ctx, plan.NewQuery("lineitem").WithGroupBy(workload.PartVolume()), 2)
			})
		assertEachEqualsSolo(t, solo, stats)
	})
	t.Run("volcano/ExecuteJoin", func(t *testing.T) {
		_, vo := setupJoinEngines(t, 500, 4000)
		neighbour := plan.NewQuery("lineitem").WithProjection(workload.LExtendedPrice)
		if _, err := vo.ExecuteJoin(ctx, jq); err != nil { // warms the pool with both tables
			t.Fatal(err)
		}
		solo, stats := besideNeighbours(t, vo.Cluster, true,
			func() (*Result, error) { return vo.ExecuteJoin(ctx, jq) },
			func() (*Result, error) { return vo.Execute(ctx, neighbour) })
		assertEachEqualsSolo(t, solo, stats)
	})

	t.Run("dataflow/ExecuteGroupByDistributed", func(t *testing.T) {
		df, _, cfg := newEngines(t)
		q := plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.3)).
			WithGroupBy(workload.PartVolume())
		cpuOnly := mustPlanned(t, df, plan.NewQuery("lineitem").WithProjection(workload.LExtendedPrice), "cpu-only")
		solo, stats := besideNeighbours(t, df.Cluster, true,
			func() (*Result, error) { return df.ExecuteGroupByDistributed(ctx, q, 2) },
			func() (*Result, error) { return df.ExecutePlan(ctx, cpuOnly) })
		assertEachEqualsSolo(t, solo, stats)
	})
}
