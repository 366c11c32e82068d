package sched

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
)

// twoNodeVariants builds ranked variants for the same query on two
// different compute nodes of one cluster, so admission can steer between
// them.
func twoNodeVariants(t *testing.T) (*fabric.Cluster, []*plan.Physical, []*plan.Physical) {
	t.Helper()
	c := fabric.NewCluster(fabric.DefaultClusterConfig())
	q := plan.NewQuery("t").WithFilter(expr.NewCmp(1, expr.Lt, columnar.IntValue(5)))
	stats := plan.StatsFromSchema(columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "qty", Type: columnar.Int64},
	))
	stats.Rows = 1_000_000
	stats.Distinct[1] = 50

	var perNode [][]*plan.Physical
	for node := 0; node < 2; node++ {
		pm, err := plan.FromCluster(c, node)
		if err != nil {
			t.Fatal(err)
		}
		opt := &plan.Optimizer{Path: pm}
		variants, err := opt.Enumerate(q, stats)
		if err != nil {
			t.Fatal(err)
		}
		perNode = append(perNode, variants)
	}
	return c, perNode[0], perNode[1]
}

func TestAdmitPicksTopVariantWhenIdle(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	adm, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Variant != v0[0].Variant {
		t.Errorf("idle admission chose %q, want top-ranked %q", adm.Variant, v0[0].Variant)
	}
	if s.ActiveCount() != 1 {
		t.Errorf("ActiveCount = %d", s.ActiveCount())
	}
	s.Release(adm)
	if s.ActiveCount() != 0 {
		t.Error("release did not drain")
	}
}

// Admission asks each variant what it occupies once and keeps the
// winner's answer: over a real four-variant plan that is one device list
// and one link list per variant, the slice holding them and the
// Admission — 10 allocations.
func TestAdmitReleaseAllocations(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	if len(v0) != 4 {
		t.Fatalf("%d variants, want the four-variant plan the ceiling was measured on", len(v0))
	}
	s := New(nil)
	ctx := context.Background()
	got := testing.AllocsPerRun(100, func() {
		adm, err := s.Admit(ctx, v0)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(adm)
	})
	const ceiling = 12
	if got > ceiling {
		t.Errorf("Admit+Release allocates %v objects, ceiling %d", got, ceiling)
	}
}

func TestAdmitTracedRecordsDecision(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	tr := obs.New()
	adm, err := s.AdmitTraced(context.Background(), v0, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(adm)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Name != "admit" || evs[0].Track != "sched" {
		t.Fatalf("events = %+v, want one admit on sched track", evs)
	}
	if !strings.Contains(evs[0].Detail, adm.Variant) {
		t.Errorf("admit detail %q does not name chosen variant %q", evs[0].Detail, adm.Variant)
	}
	// Nil trace must behave exactly like Admit.
	adm2, err := s.AdmitTraced(context.Background(), v0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(adm2)
}

func TestAdmitRequiresVariants(t *testing.T) {
	if _, err := New(nil).Admit(context.Background(), nil); err == nil {
		t.Error("empty admit succeeded")
	}
}

func TestFairShareLimitsAndRestores(t *testing.T) {
	c, v0, _ := twoNodeVariants(t)
	s := New(nil)
	// Admit the same node-0 variant list twice: both use node 0's host
	// links, forcing shared-link limits.
	a1, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	// Find a link both admissions use.
	shared := c.LinkBetween(fabric.DevStorageNIC, fabric.DevSwitch)
	if shared == nil {
		t.Fatal("no storage uplink")
	}
	if load := s.LinkLoad(shared); load != 2 {
		t.Fatalf("shared link load = %d, want 2", load)
	}
	if shared.EffectiveBandwidth() != shared.Bandwidth/2 {
		t.Errorf("shared link not fair-shared: %v of %v", shared.EffectiveBandwidth(), shared.Bandwidth)
	}
	s.Release(a1)
	if shared.EffectiveBandwidth() != shared.Bandwidth {
		t.Errorf("limit not lifted after release: %v", shared.EffectiveBandwidth())
	}
	s.Release(a2)
	if s.LinkLoad(shared) != 0 {
		t.Error("load not drained")
	}
}

func TestContentionSteersVariant(t *testing.T) {
	// Load node-0's path heavily, then admit a candidate list that
	// contains node-0 and node-1 variants: the scheduler must choose a
	// node-1 variant despite node-0's better rank.
	_, v0, v1 := twoNodeVariants(t)
	s := New(nil)
	s.ContentionPenalty = 10
	var held []*Admission
	for i := 0; i < 3; i++ {
		a, err := s.Admit(context.Background(), v0[:1]) // force node-0 placement
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, a)
	}
	// Candidates: node-0 top variant first (better rank), node-1 next.
	mixed := []*plan.Physical{v0[0], v1[0]}
	a, err := s.Admit(context.Background(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan != v1[0] {
		t.Errorf("scheduler kept loaded node-0 variant under contention")
	}
	for _, h := range held {
		s.Release(h)
	}
	s.Release(a)
}

func TestDoubleReleasePanics(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	a, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(a)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	s.Release(a)
}

func TestClearLimits(t *testing.T) {
	c, v0, _ := twoNodeVariants(t)
	s := New(nil)
	s.Admit(context.Background(), v0)
	s.Admit(context.Background(), v0)
	s.ClearLimits()
	shared := c.LinkBetween(fabric.DevStorageNIC, fabric.DevSwitch)
	if shared.EffectiveBandwidth() != shared.Bandwidth {
		t.Error("ClearLimits left a limit")
	}
}

// An admit or a release re-limits only its own links, which must leave
// every link of the fabric at the fair share of its current load, as a
// pass over every link would.
func TestEveryLinkHoldsItsFairShare(t *testing.T) {
	c, v0, v1 := twoNodeVariants(t)
	s := New(nil)
	check := func(step string) {
		t.Helper()
		for _, l := range c.Links() {
			want := l.Bandwidth
			if k := s.LinkLoad(l); k > 1 {
				want = l.Bandwidth / sim.Rate(k)
			}
			if got := l.EffectiveBandwidth(); got != want {
				t.Errorf("%s: %s at %v, want %v (load %d)", step, l.Name, got, want, s.LinkLoad(l))
			}
		}
	}
	var adms []*Admission
	for i, vs := range [][]*plan.Physical{v0, v1, v0, v1, v0} {
		adm, err := s.Admit(context.Background(), vs)
		if err != nil {
			t.Fatal(err)
		}
		adms = append(adms, adm)
		check(fmt.Sprintf("admit %d", i))
	}
	for _, i := range []int{2, 0, 4, 1, 3} {
		s.Release(adms[i])
		check(fmt.Sprintf("release %d", i))
	}
}
