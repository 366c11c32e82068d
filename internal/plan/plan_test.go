package plan

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "qty", Type: columnar.Int64},
		columnar.Field{Name: "price", Type: columnar.Float64},
		columnar.Field{Name: "tag", Type: columnar.String},
	)
}

func testStats() TableStats {
	st := StatsFromSchema(testSchema())
	st.Rows = 1_000_000
	st.Distinct[0] = 1_000_000
	st.Distinct[1] = 50
	st.MinInt[1], st.MaxInt[1], st.IntBounds[1] = 0, 49, true
	st.MinInt[0], st.MaxInt[0], st.IntBounds[0] = 0, 999_999, true
	return st
}

func smartPath(t *testing.T) PathModel {
	t.Helper()
	pm, err := FromCluster(fabric.NewCluster(fabric.DefaultClusterConfig()), 0)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func legacyPath(t *testing.T) PathModel {
	t.Helper()
	pm, err := FromCluster(fabric.NewCluster(fabric.LegacyClusterConfig()), 0)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestQueryValidateAndString(t *testing.T) {
	q := NewQuery("t").WithFilter(expr.NewCmp(1, expr.Lt, columnar.IntValue(5))).WithProjection(2)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"SELECT col2", "FROM t", "WHERE col1 < 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if err := NewQuery("").Validate(); err == nil {
		t.Error("empty table accepted")
	}
	bad := NewQuery("t").WithCount()
	bad.GroupBy = &expr.GroupBy{}
	if err := bad.Validate(); err == nil {
		t.Error("count+groupby accepted")
	}
	g := NewQuery("t").WithGroupBy(expr.GroupBy{GroupCols: []int{1}, Aggs: []expr.AggSpec{{Func: expr.Count}}}).WithOrderBy(0).WithLimit(5)
	gs := g.String()
	for _, want := range []string{"GROUP BY col1", "ORDER BY out0", "LIMIT 5", "COUNT(*)"} {
		if !strings.Contains(gs, want) {
			t.Errorf("String() = %q missing %q", gs, want)
		}
	}
}

func TestPathFromCluster(t *testing.T) {
	pm := smartPath(t)
	if len(pm.Sites) != 5 {
		t.Fatalf("smart path has %d sites, want 5", len(pm.Sites))
	}
	order := []Site{SiteStorage, SiteStorageNIC, SiteComputeNIC, SiteNearMemory, SiteCPU}
	for i, want := range order {
		if pm.Sites[i].Site != want {
			t.Errorf("site %d = %v, want %v", i, pm.Sites[i].Site, want)
		}
	}
	// Every non-terminal site must reach the next one.
	for i := 0; i < len(pm.Sites)-1; i++ {
		if len(pm.Sites[i].ToNext) == 0 {
			t.Errorf("site %d has no links to next", i)
		}
		if pm.SegmentBandwidth(i) <= 0 {
			t.Errorf("segment %d bandwidth = 0", i)
		}
		if pm.SegmentLatency(i) <= 0 {
			t.Errorf("segment %d latency = 0", i)
		}
	}
	lp := legacyPath(t)
	if len(lp.Sites) != 4 {
		t.Fatalf("legacy path has %d sites, want 4 (no near-memory)", len(lp.Sites))
	}
	if pm.String() == "" {
		t.Error("empty String()")
	}
	if _, err := FromCluster(fabric.NewCluster(fabric.DefaultClusterConfig()), 99); err == nil {
		t.Error("bogus node accepted")
	}
}

func TestEstimateSelectivity(t *testing.T) {
	st := testStats()
	cases := []struct {
		p    expr.Predicate
		want float64
		tol  float64
	}{
		{expr.NewCmp(1, expr.Eq, columnar.IntValue(3)), 1.0 / 50, 1e-9},
		{expr.NewCmp(1, expr.Ne, columnar.IntValue(3)), 49.0 / 50, 1e-9},
		{expr.NewCmp(1, expr.Lt, columnar.IntValue(25)), 0.51, 0.02},
		{expr.NewBetween(1, 10, 19), 0.2, 0.01},
		{expr.NewLike(3, "x"), 0.1, 1e-9},
		{expr.NewAnd(expr.NewBetween(1, 0, 24), expr.NewBetween(1, 0, 9)), 0.5 * 0.2, 0.02},
		{expr.NewNot(expr.NewBetween(1, 10, 19)), 0.8, 0.01},
		{nil, 1, 0},
	}
	for i, tc := range cases {
		got := EstimateSelectivity(tc.p, st)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("case %d: sel = %v, want %v", i, got, tc.want)
		}
	}
}

func TestGroupEstimate(t *testing.T) {
	st := testStats()
	g := &expr.GroupBy{GroupCols: []int{1}}
	if got := st.GroupEstimate(g); got != 50 {
		t.Errorf("GroupEstimate = %d, want 50", got)
	}
	big := &expr.GroupBy{GroupCols: []int{0}}
	if got := st.GroupEstimate(big); got != st.Rows {
		t.Errorf("high-cardinality GroupEstimate = %d, want rows", got)
	}
	if got := st.GroupEstimate(nil); got != 1 {
		t.Errorf("scalar GroupEstimate = %d, want 1", got)
	}
}

// choose returns the best-ranked variant, the head of Enumerate.
func choose(o *Optimizer, q *Query, stats TableStats) (*Physical, error) {
	all, err := o.Enumerate(q, stats)
	if err != nil {
		return nil, err
	}
	return all[0], nil
}

func TestOptimizerPrefersOffloadOnSelectiveFilter(t *testing.T) {
	pm := smartPath(t)
	opt := &Optimizer{Path: pm}
	q := NewQuery("t").
		WithFilter(expr.NewCmp(1, expr.Eq, columnar.IntValue(3))). // 2% selectivity
		WithProjection(2)
	best, err := choose(opt, q, testStats())
	if err != nil {
		t.Fatal(err)
	}
	if !best.HasPlacement(fabric.OpFilter, SiteStorage) {
		t.Errorf("best plan %q does not filter at storage:\n%s", best.Variant, best.Explain())
	}
	if best.EstBytes <= 0 || best.EstTime <= 0 {
		t.Error("estimates missing")
	}
}

func TestOptimizerLegacyFallsBackToCPU(t *testing.T) {
	opt := &Optimizer{Path: legacyPath(t)}
	q := NewQuery("t").WithFilter(expr.NewCmp(1, expr.Eq, columnar.IntValue(3)))
	all, err := opt.Enumerate(q, testStats())
	if err != nil {
		t.Fatal(err)
	}
	// With a dumb fabric every variant collapses to CPU placement.
	if len(all) != 1 {
		t.Fatalf("legacy fabric produced %d variants, want 1", len(all))
	}
	if !all[0].HasPlacement(fabric.OpFilter, SiteCPU) {
		t.Error("legacy filter not on CPU")
	}
}

func TestOptimizerStagedPreAgg(t *testing.T) {
	opt := &Optimizer{Path: smartPath(t)}
	q := NewQuery("t").WithGroupBy(expr.GroupBy{
		GroupCols: []int{1},
		Aggs:      []expr.AggSpec{{Func: expr.Count}, {Func: expr.Sum, Col: 2}},
	})
	all, err := opt.Enumerate(q, testStats())
	if err != nil {
		t.Fatal(err)
	}
	var full *Physical
	for _, p := range all {
		if p.Variant == "full-offload" {
			full = p
		}
	}
	if full == nil {
		t.Fatal("no full-offload variant")
	}
	// Pre-agg at storage, both NICs (3 sites) then final at CPU.
	count := 0
	for _, pl := range full.Placements {
		if pl.Op == fabric.OpPreAgg {
			count++
		}
	}
	if count < 3 {
		t.Errorf("full-offload placed %d pre-agg stages, want >= 3:\n%s", count, full.Explain())
	}
	if !full.HasPlacement(fabric.OpAggregate, SiteCPU) {
		t.Error("final aggregate not on CPU")
	}
}

func TestOptimizerCountOnNIC(t *testing.T) {
	opt := &Optimizer{Path: smartPath(t)}
	q := NewQuery("t").WithCount()
	best, err := choose(opt, q, testStats())
	if err != nil {
		t.Fatal(err)
	}
	if !best.HasPlacement(fabric.OpCount, SiteStorage) {
		t.Errorf("count not at the earliest site:\n%s", best.Explain())
	}
}

func TestOffloadBeatsCPUOnMovement(t *testing.T) {
	// Constrained fabric: two cores available to this query and a 100G
	// network — the paper's shared-cloud scenario where pushdown's time
	// advantage materializes (on an idle fat fabric only the movement
	// advantage is guaranteed).
	cfg := fabric.DefaultClusterConfig()
	cfg.CPUCores = 2
	cfg.NICTier = fabric.LinkEth100
	pm, err := FromCluster(fabric.NewCluster(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := &Optimizer{Path: pm}
	q := NewQuery("t").
		WithFilter(expr.NewCmp(1, expr.Eq, columnar.IntValue(3))).
		WithProjection(2)
	all, err := opt.Enumerate(q, testStats())
	if err != nil {
		t.Fatal(err)
	}
	var cpu, offload *Physical
	for _, p := range all {
		switch p.Variant {
		case "cpu-only":
			cpu = p
		case "full-offload", "storage-pushdown":
			if offload == nil {
				offload = p
			}
		}
	}
	if cpu == nil || offload == nil {
		t.Fatalf("variants missing: %d produced", len(all))
	}
	if offload.EstBytes >= cpu.EstBytes {
		t.Errorf("offload moves %v >= cpu %v", offload.EstBytes, cpu.EstBytes)
	}
	if offload.EstTime >= cpu.EstTime {
		t.Errorf("offload time %v >= cpu %v", offload.EstTime, cpu.EstTime)
	}
}

func TestExplainOutput(t *testing.T) {
	opt := &Optimizer{Path: smartPath(t)}
	best, err := choose(opt, NewQuery("t").WithCount(), testStats())
	if err != nil {
		t.Fatal(err)
	}
	out := best.Explain()
	for _, want := range []string{"storage", "cpu", "est:", "COUNT"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestMoveWeightChangesRanking(t *testing.T) {
	// Movement is priced when ranking: variants come out in ascending
	// time + DefaultMoveWeight * bytes / first-segment bandwidth, which is
	// not the order time alone would give — some plan outranks a faster
	// one by moving less.
	pm := smartPath(t)
	all, err := (&Optimizer{Path: pm}).Enumerate(NewQuery("t").WithCount(), testStats())
	if err != nil {
		t.Fatal(err)
	}
	score := func(p *Physical) float64 {
		return p.EstTime.Seconds() + DefaultMoveWeight*float64(p.EstBytes)/float64(pm.SegmentBandwidth(0))
	}
	outranksFaster := false
	for i := 1; i < len(all); i++ {
		if score(all[i-1]) > score(all[i]) {
			t.Errorf("%q (score %g) ranked above %q (score %g)",
				all[i-1].Variant, score(all[i-1]), all[i].Variant, score(all[i]))
		}
		if all[i].EstTime < all[i-1].EstTime && all[i].EstBytes > all[i-1].EstBytes {
			outranksFaster = true
		}
	}
	if !outranksFaster {
		t.Error("ranking equals ranking by time alone; moved bytes carried no weight")
	}
}

func TestStatsHelpers(t *testing.T) {
	st := testStats()
	if st.RowBytes(nil) != 8+8+8+24 {
		t.Errorf("RowBytes(nil) = %d", st.RowBytes(nil))
	}
	if st.RowBytes([]int{0, 2}) != 16 {
		t.Errorf("RowBytes([0,2]) = %d", st.RowBytes([]int{0, 2}))
	}
	if st.TotalBytes() <= 0 {
		t.Error("TotalBytes <= 0")
	}
}

func TestNeededCols(t *testing.T) {
	q := NewQuery("t").WithFilter(expr.NewCmp(1, expr.Lt, columnar.IntValue(5))).WithProjection(2)
	got := neededCols(q, 4)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("neededCols = %v, want [1 2]", got)
	}
	all := neededCols(NewQuery("t"), 3)
	if len(all) != 3 {
		t.Errorf("neededCols(*) = %v", all)
	}
}

// What a variant occupies, against a literal table: the devices that
// host a placement (each once, in path order) and the links its stream
// crosses (each once, in path order, placed or not).
func TestPhysicalOccupancy(t *testing.T) {
	a, b, c := &fabric.Device{Name: "a"}, &fabric.Device{Name: "b"}, &fabric.Device{Name: "c"}
	l1, l2 := &fabric.Link{Name: "l1"}, &fabric.Link{Name: "l2"}
	// Three devices; l1 carries both hops out of storage.
	apart := PathModel{Sites: []SiteInfo{
		{Site: SiteStorage, Device: a, ToNext: []*fabric.Link{l1}},
		{Site: SiteStorageNIC, Device: b, ToNext: []*fabric.Link{l1, l2}},
		{Site: SiteCPU, Device: c},
	}}
	// The storage and NIC sites are one device: no link between them.
	shared := PathModel{Sites: []SiteInfo{
		{Site: SiteStorage, Device: a},
		{Site: SiteStorageNIC, Device: a, ToNext: []*fabric.Link{l2}},
		{Site: SiteCPU, Device: c},
	}}
	at := func(sites ...int) []Placement {
		var out []Placement
		for _, s := range sites {
			out = append(out, Placement{Op: fabric.OpFilter, SiteIdx: s})
		}
		return out
	}
	cases := []struct {
		name    string
		path    PathModel
		placed  []Placement
		devices []string
		links   []string
	}{
		{"nothing placed", apart, nil, nil, []string{"l1", "l2"}},
		{"one site placed twice", apart, at(1, 1), []string{"b"}, []string{"l1", "l2"}},
		{"every site placed", apart, at(2, 0, 1), []string{"a", "b", "c"}, []string{"l1", "l2"}},
		{"storage and NIC share no device", apart, at(0, 1), []string{"a", "b"}, []string{"l1", "l2"}},
		{"storage and NIC share a device", shared, at(0, 1, 2), []string{"a", "c"}, []string{"l2"}},
	}
	for _, tc := range cases {
		p := &Physical{Path: tc.path, Placements: tc.placed}
		var devices, links []string
		for _, d := range p.Devices() {
			devices = append(devices, d.Name)
		}
		for _, l := range p.Links() {
			links = append(links, l.Name)
		}
		if !slices.Equal(devices, tc.devices) {
			t.Errorf("%s: Devices = %v, want %v", tc.name, devices, tc.devices)
		}
		if !slices.Equal(links, tc.links) {
			t.Errorf("%s: Links = %v, want %v", tc.name, links, tc.links)
		}
		if got := p.PlacedDevices(); !slices.Equal(got, devices) {
			t.Errorf("%s: PlacedDevices = %v, want the names of Devices %v", tc.name, got, devices)
		}
	}
}

// A BETWEEN keeps the part of its range that lies inside the column's
// bounds, however far the range reaches past them.
func TestBetweenSelectivityClipsToBounds(t *testing.T) {
	st := testStats()
	st.MinInt[1], st.MaxInt[1] = 0, 2525 // a shipdate's bounds
	cases := []struct {
		lo, hi int64
		want   float64
	}{
		{-1000, 10, 11.0 / 2526},
		{2000, 9000, 526.0 / 2526},
		{math.MinInt64, math.MaxInt64, 1},
		{3000, 4000, 0},
		{10, 19, 10.0 / 2526},
	}
	for _, tc := range cases {
		if got := EstimateSelectivity(expr.NewBetween(1, tc.lo, tc.hi), st); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("BETWEEN %d AND %d: sel = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// The scheduler re-limits links whenever a query is admitted or
// released, while other queries plan. One enumeration must cost every
// variant, and rank them, against one reading of the fabric: each
// result equals the one enumerated with the limit held at one of its
// two values.
func TestEnumerateSeesOneFabric(t *testing.T) {
	st, cfg := lineitemStats()
	c := fabric.NewCluster(fabric.DefaultClusterConfig())
	pm, err := FromCluster(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := &Optimizer{Path: pm}
	q := NewQuery("lineitem").WithFilter(workload.SelectivityFilter(cfg, 0.5)) // scan-wide
	type outcome struct {
		variant string
		bytes   sim.Bytes
		time    sim.VTime
	}
	enumerate := func() []outcome {
		vs, err := o.Enumerate(q, st)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]outcome, len(vs))
		for i, v := range vs {
			out[i] = outcome{v.Variant, v.EstBytes, v.EstTime}
		}
		return out
	}
	l := c.Link(fabric.DevStorageProc + "--" + fabric.DevStorageNIC)
	l.SetRateLimit(l.Bandwidth / 8)
	limited := enumerate()
	l.SetRateLimit(0)
	free := enumerate()
	if slices.Equal(limited, free) {
		t.Fatal("the rate limit does not change the enumeration; the test shows nothing")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.SetRateLimit(l.Bandwidth / 8)
			l.SetRateLimit(0)
		}
	}()
	const runs = 20000
	mixed := 0
	for i := 0; i < runs; i++ {
		if got := enumerate(); !slices.Equal(got, limited) && !slices.Equal(got, free) {
			mixed++
		}
	}
	close(stop)
	wg.Wait()
	if mixed > 0 {
		t.Errorf("%d of %d enumerations costed their variants against more than one fabric", mixed, runs)
	}
}

// The occupancy the optimizer derives when it builds a variant is what a
// hand-built Physical with the same path and placements derives on ask.
func TestBuiltOccupancyMatchesDerived(t *testing.T) {
	st, cfg := lineitemStats()
	for _, pm := range []PathModel{smartPath(t), legacyPath(t)} {
		o := &Optimizer{Path: pm}
		for _, q := range []*Query{
			NewQuery("l").WithFilter(workload.SelectivityFilter(cfg, 0.01)).WithProjection(workload.LOrderKey),
			NewQuery("l").WithFilter(workload.SelectivityFilter(cfg, 0.9)).WithGroupBy(workload.PricingSummary()),
			NewQuery("l").WithCount(),
		} {
			vs, err := o.Enumerate(q, st)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				hand := &Physical{Path: v.Path, Placements: v.Placements}
				if !slices.Equal(v.Devices(), hand.Devices()) || !slices.Equal(v.Links(), hand.Links()) {
					t.Errorf("%s: built occupancy %v %v, derived %v %v", v.Variant, v.Devices(), v.Links(), hand.Devices(), hand.Links())
				}
			}
		}
	}
}

// The offline flag is the only record of a failed device: a device marked
// offline hosts no operator in any variant, and with every accelerator
// offline the CPU backstop still hosts everything.
func TestEnumerateSkipsOfflineDevices(t *testing.T) {
	st, cfg := lineitemStats()
	q := NewQuery("lineitem").WithFilter(workload.SelectivityFilter(cfg, 0.9)).
		WithGroupBy(workload.PricingSummary())
	enumerate := func(c *fabric.Cluster) (PathModel, []*Physical) {
		t.Helper()
		pm, err := FromCluster(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := (&Optimizer{Path: pm}).Enumerate(q, st)
		if err != nil {
			t.Fatal(err)
		}
		return pm, vs
	}
	places := func(vs []*Physical, site int) bool {
		return slices.ContainsFunc(vs, func(v *Physical) bool {
			return slices.ContainsFunc(v.Placements, func(pl Placement) bool { return pl.SiteIdx == site })
		})
	}

	all := fabric.NewCluster(fabric.DefaultClusterConfig())
	pm, _ := enumerate(all)
	cpuIdx := len(pm.Sites) - 1
	for i, s := range pm.Sites[:cpuIdx] {
		c := fabric.NewCluster(fabric.DefaultClusterConfig())
		if _, vs := enumerate(c); !places(vs, i) {
			t.Fatalf("no variant places an operator on %s while it is up; the test shows nothing", s.Device.Name)
		}
		c.MustDevice(s.Device.Name).SetOffline(true)
		if _, vs := enumerate(c); places(vs, i) {
			t.Errorf("a variant places an operator on offline %s", s.Device.Name)
		}
		all.MustDevice(s.Device.Name).SetOffline(true)
	}

	_, vs := enumerate(all)
	if len(vs) == 0 {
		t.Fatal("no variant with every accelerator offline")
	}
	for _, v := range vs {
		for _, pl := range v.Placements {
			if pl.SiteIdx != cpuIdx {
				t.Errorf("variant %q places %v on %s with every accelerator offline",
					v.Variant, pl.Op, pm.Sites[pl.SiteIdx].Device.Name)
			}
		}
	}
}
