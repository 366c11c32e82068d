package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/obs/metrics"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

func setupJoinEngines(t *testing.T, orders, lines int) (*DataFlowEngine, *VolcanoEngine) {
	t.Helper()
	lcfg := workload.DefaultLineitemConfig(lines)
	lcfg.Orders = int64(orders) // lineitem order keys land in [0, orders)
	lineData := workload.GenLineitem(lcfg)
	orderData := workload.GenOrders(orders, 9)

	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	vo := NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 512*sim.MB)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(df.CreateTable("lineitem", workload.LineitemSchema()))
	must(df.CreateTable("orders", workload.OrdersSchema()))
	must(df.Load("lineitem", lineData))
	must(df.Load("orders", orderData))
	must(vo.CreateTable("lineitem", workload.LineitemSchema()))
	must(vo.CreateTable("orders", workload.OrdersSchema()))
	must(vo.Load("lineitem", lineData))
	must(vo.Load("orders", orderData))
	return df, vo
}

// joinFingerprint summarizes a join result order-insensitively:
// row count plus a sorted sample of (probe key, build key) sums.
func joinFingerprint(t *testing.T, r *Result, probeKeyCol, buildKeyCol int) (int64, []int64) {
	t.Helper()
	var keys []int64
	for _, b := range r.Batches {
		pk := b.Col(probeKeyCol).Int64s()
		bk := b.Col(buildKeyCol).Int64s()
		for i := range pk {
			if pk[i] != bk[i] {
				t.Fatalf("join emitted mismatched keys %d vs %d", pk[i], bk[i])
			}
			keys = append(keys, pk[i])
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return int64(len(keys)), keys
}

func TestDistributedJoinMatchesVolcano(t *testing.T) {
	df, vo := setupJoinEngines(t, 2000, 10000)
	jq := JoinQuery{
		Probe: "lineitem", Build: "orders",
		ProbeKey: workload.LOrderKey, BuildKey: workload.OOrderKey,
	}
	dfRes, err := df.ExecuteJoin(context.Background(), jq)
	if err != nil {
		t.Fatal(err)
	}
	voRes, err := vo.ExecuteJoin(context.Background(), jq)
	if err != nil {
		t.Fatal(err)
	}
	// Every lineitem row has an order (keys in [0, orders)), so the
	// join is total.
	if dfRes.Rows() != 10000 {
		t.Fatalf("dataflow join rows = %d, want 10000", dfRes.Rows())
	}
	// Output schemas: probe(lineitem 9 cols) + build(orders 5 cols);
	// probe key col 0, build key col 9.
	dfN, dfKeys := joinFingerprint(t, dfRes, workload.LOrderKey, 9)
	voN, voKeys := joinFingerprint(t, voRes, workload.LOrderKey, 9)
	if dfN != voN {
		t.Fatalf("row counts differ: %d vs %d", dfN, voN)
	}
	for i := range dfKeys {
		if dfKeys[i] != voKeys[i] {
			t.Fatalf("key multiset differs at %d: %d vs %d", i, dfKeys[i], voKeys[i])
		}
	}
}

// The join's table scans run the same pull as Execute, spans included.
// ExecuteJoin records no timeline, so on a traced engine the pull must
// find no trace to write to — and charge exactly what it always did.
func TestVolcanoJoinOnTracedEngine(t *testing.T) {
	jq := JoinQuery{
		Probe: "lineitem", Build: "orders",
		ProbeKey: workload.LOrderKey, BuildKey: workload.OOrderKey,
	}
	_, plain := setupJoinEngines(t, 2000, 10000)
	want, err := plain.ExecuteJoin(context.Background(), jq)
	if err != nil {
		t.Fatal(err)
	}
	_, traced := setupJoinEngines(t, 2000, 10000)
	traced.Tracing = true
	got, err := traced.ExecuteJoin(context.Background(), jq)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != nil {
		t.Error("ExecuteJoin returned a trace; it records none")
	}
	assertSameMeters(t, want.Stats, got.Stats)
}

func TestDistributedJoinStats(t *testing.T) {
	df, vo := setupJoinEngines(t, 1000, 8000)
	jq := JoinQuery{
		Probe: "lineitem", Build: "orders",
		ProbeKey: workload.LOrderKey, BuildKey: workload.OOrderKey,
	}
	dfRes, err := df.ExecuteJoin(context.Background(), jq)
	if err != nil {
		t.Fatal(err)
	}
	voRes, err := vo.ExecuteJoin(context.Background(), jq)
	if err != nil {
		t.Fatal(err)
	}
	if dfRes.Stats.Variant != "distributed-join" {
		t.Errorf("variant = %q", dfRes.Stats.Variant)
	}
	// The NIC scatter spreads join work over both nodes and keeps the
	// exchange off the CPUs: per-CPU busy must be below the volcano
	// single-CPU busy.
	for i := 0; i < 2; i++ {
		name := fabric.ComputeDev(i, "cpu")
		if dfRes.Stats.DeviceBusy[name] == 0 {
			t.Errorf("node %d CPU idle: join not distributed", i)
		}
		if dfRes.Stats.DeviceBusy[name] >= voRes.Stats.CPUBusy {
			t.Errorf("node %d busy %v >= volcano single-CPU %v",
				i, dfRes.Stats.DeviceBusy[name], voRes.Stats.CPUBusy)
		}
	}
	if dfRes.Stats.SimTime <= 0 || dfRes.Stats.MovedBytes <= 0 {
		t.Error("join stats incomplete")
	}
}

func TestJoinValidation(t *testing.T) {
	df, vo := setupJoinEngines(t, 100, 500)
	if _, err := df.ExecuteJoin(context.Background(), JoinQuery{Probe: "ghost", Build: "orders"}); err == nil {
		t.Error("join with unknown probe succeeded")
	}
	if _, err := vo.ExecuteJoin(context.Background(), JoinQuery{Probe: "lineitem", Build: "ghost"}); err == nil {
		t.Error("volcano join with unknown build succeeded")
	}
	if _, err := df.ExecuteJoin(context.Background(), JoinQuery{Probe: "lineitem", Build: "orders", Nodes: 99}); err == nil {
		t.Error("join with too many nodes succeeded")
	}
}

func TestJoinOnLegacyClusterUsesCPUScatter(t *testing.T) {
	lcfg := workload.DefaultLineitemConfig(2000)
	lcfg.Orders = 500
	df := NewDataFlowEngine(fabric.NewCluster(fabric.LegacyClusterConfig()))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(df.CreateTable("lineitem", workload.LineitemSchema()))
	must(df.CreateTable("orders", workload.OrdersSchema()))
	must(df.Load("lineitem", workload.GenLineitem(lcfg)))
	must(df.Load("orders", workload.GenOrders(500, 9)))
	res, err := df.ExecuteJoin(context.Background(), JoinQuery{
		Probe: "lineitem", Build: "orders",
		ProbeKey: workload.LOrderKey, BuildKey: workload.OOrderKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 2000 {
		t.Fatalf("rows = %d", res.Rows())
	}
	// On the dumb fabric the scatter ran on compute0's CPU: its busy
	// time includes partitioning the probe side.
	cpu0 := res.Stats.DeviceBusy[fabric.ComputeDev(0, "cpu")]
	if cpu0 == 0 {
		t.Error("legacy scatter CPU idle")
	}
}

// TestJoinOwnsItsStoreAccount: a join's two scans and a distributed
// group-by's one charge the query's own store account, as a planned
// query's scan does — under injected transient faults over a 2-replica
// store the retries each result reports are exactly the ones the store
// counted, and the accounts of all queries sum to the store's total.
func TestJoinOwnsItsStoreAccount(t *testing.T) {
	lcfg := workload.DefaultLineitemConfig(6000)
	lcfg.Orders = 1000
	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	store := df.Storage.Store()
	store.SetReplicas(2)
	store.RetryBase = 0
	df.Storage.SegmentRows = 500 // 12 + 2 segments: many fault draws
	for table, data := range map[string]*columnar.Batch{
		"lineitem": workload.GenLineitem(lcfg),
		"orders":   workload.GenOrders(1000, 9),
	} {
		if err := df.CreateTable(table, data.Schema()); err != nil {
			t.Fatal(err)
		}
		if err := df.Load(table, data); err != nil {
			t.Fatal(err)
		}
	}
	inj := faults.New(0x101)
	inj.Arm(faults.Point{Kind: faults.TransientRead, Prob: 0.2})
	df.Faults = inj

	join, err := df.ExecuteJoin(context.Background(), JoinQuery{
		Probe: "lineitem", Build: "orders",
		ProbeKey: workload.LOrderKey, BuildKey: workload.OOrderKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	afterJoin := store.Totals()
	if afterJoin.Retries == 0 {
		t.Fatal("no transient fault fired; the test cannot tell an account from zero")
	}
	if join.Stats.Scan.ReadStats != afterJoin {
		t.Errorf("join account %+v, store counted %+v", join.Stats.Scan.ReadStats, afterJoin)
	}
	if join.Stats.Scan.SegmentsTotal != 14 || join.Stats.Scan.MediaBytes == 0 {
		t.Errorf("join scan stats = %+v, want both sides' 14 segments", join.Stats.Scan)
	}

	q := plan.NewQuery("lineitem").WithGroupBy(workload.PartVolume())
	agg, err := df.ExecuteGroupByDistributed(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := join.Stats.Scan.ReadStats
	sum.Add(agg.Stats.Scan.ReadStats)
	if total := store.Totals(); sum != total || agg.Stats.Scan.Retries == 0 {
		t.Errorf("accounts sum to %+v (group-by %+v), store counted %+v", sum, agg.Stats.Scan.ReadStats, total)
	}
}

// TestPublishCountsJoinsAndDistributedGroupBys: the join and distributed
// entry points publish like Execute does, one fleet query each.
func TestPublishCountsJoinsAndDistributedGroupBys(t *testing.T) {
	df, vo := setupJoinEngines(t, 500, 3000)
	reg := metrics.New()
	df.Metrics = reg
	vo.Metrics = reg
	jq := JoinQuery{
		Probe: "lineitem", Build: "orders",
		ProbeKey: workload.LOrderKey, BuildKey: workload.OOrderKey,
	}
	ctx := WithTenant(context.Background(), "alpha")
	for i, run := range []func() (*Result, error){
		func() (*Result, error) { return df.ExecuteJoin(ctx, jq) },
		func() (*Result, error) { return vo.ExecuteJoin(ctx, jq) },
		func() (*Result, error) {
			return df.ExecuteGroupByDistributed(ctx, plan.NewQuery("lineitem").WithGroupBy(workload.PartVolume()), 2)
		},
	} {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("fleet.queries").Value(); got != int64(i+1) {
			t.Errorf("fleet.queries = %d after entry point %d, want %d", got, i, i+1)
		}
	}
	if got := reg.Counter(metrics.Labels("tenant.queries", "tenant", "alpha")).Value(); got != 3 {
		t.Errorf("tenant.queries{alpha} = %d, want 3", got)
	}
}
