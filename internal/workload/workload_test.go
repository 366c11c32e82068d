package workload

import (
	"testing"

	"repro/internal/plan"
)

func TestGenLineitemShape(t *testing.T) {
	cfg := DefaultLineitemConfig(1000)
	b := GenLineitem(cfg)
	if b.NumRows() != 1000 || b.NumCols() != 9 {
		t.Fatalf("shape = %dx%d", b.NumRows(), b.NumCols())
	}
	// Domains.
	qty := b.Col(LQuantity).Int64s()
	for _, q := range qty {
		if q < 1 || q > 50 {
			t.Fatalf("quantity %d out of [1,50]", q)
		}
	}
	ship := b.Col(LShipDate).Int64s()
	for _, s := range ship {
		if s < 0 || s >= cfg.ShipDays {
			t.Fatalf("shipdate %d out of range", s)
		}
	}
	flags := map[string]bool{}
	for _, f := range b.Col(LReturnFlag).Strings() {
		flags[f] = true
	}
	if len(flags) != 3 {
		t.Errorf("return flags = %v, want 3 distinct", flags)
	}
}

func TestGenLineitemDeterministic(t *testing.T) {
	cfg := DefaultLineitemConfig(200)
	a, b := GenLineitem(cfg), GenLineitem(cfg)
	for i := 0; i < a.NumRows(); i += 37 {
		for c := 0; c < a.NumCols(); c++ {
			if !a.Col(c).Value(i).Equal(b.Col(c).Value(i)) {
				t.Fatalf("row %d col %d differs across runs", i, c)
			}
		}
	}
	cfg2 := cfg
	cfg2.Seed = 43
	c := GenLineitem(cfg2)
	same := true
	for i := 0; i < 20; i++ {
		if !a.Col(LOrderKey).Value(i).Equal(c.Col(LOrderKey).Value(i)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestPartKeySkew(t *testing.T) {
	cfg := DefaultLineitemConfig(20000)
	b := GenLineitem(cfg)
	counts := map[int64]int{}
	for _, p := range b.Col(LPartKey).Int64s() {
		counts[p]++
	}
	// Zipf: part 0 must be clearly hotter than average.
	avg := float64(cfg.Rows) / float64(cfg.Parts)
	if float64(counts[0]) < 10*avg {
		t.Errorf("part 0 count %d not skewed (avg %.1f)", counts[0], avg)
	}
}

func TestGenOrders(t *testing.T) {
	b := GenOrders(500, 7)
	if b.NumRows() != 500 {
		t.Fatalf("rows = %d", b.NumRows())
	}
	keys := b.Col(OOrderKey).Int64s()
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("order keys not dense: key[%d]=%d", i, k)
		}
	}
}

func TestGenKV(t *testing.T) {
	uni := GenKV(KVConfig{Rows: 10000, Keys: 100, Seed: 1})
	skew := GenKV(KVConfig{Rows: 10000, Keys: 100, ZipfSkew: 1.2, Seed: 1})
	countTop := func(b interface{}) {}
	_ = countTop
	count := func(ks []int64) int {
		c := 0
		for _, k := range ks {
			if k == 0 {
				c++
			}
		}
		return c
	}
	u0 := count(uni.Col(0).Int64s())
	s0 := count(skew.Col(0).Int64s())
	if s0 < 3*u0 {
		t.Errorf("zipf key 0 count %d not skewed vs uniform %d", s0, u0)
	}
	for _, k := range uni.Col(0).Int64s() {
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestSelectivityFilter(t *testing.T) {
	cfg := DefaultLineitemConfig(50000)
	b := GenLineitem(cfg)
	for _, frac := range []float64{0.01, 0.1, 0.5, 1.0} {
		p := SelectivityFilter(cfg, frac)
		got := float64(p.Eval(b).Count()) / float64(b.NumRows())
		if got < frac*0.7-0.005 || got > frac*1.3+0.005 {
			t.Errorf("frac %.2f: actual selectivity %.4f", frac, got)
		}
	}
	// Degenerate fractions clamp.
	if SelectivityFilter(cfg, 0) == nil || SelectivityFilter(cfg, 2) == nil {
		t.Error("degenerate fractions returned nil")
	}
}

func TestSelectivityEstimateAgreesWithActual(t *testing.T) {
	cfg := DefaultLineitemConfig(50000)
	st := plan.StatsFromSchema(LineitemSchema())
	st.Rows = int64(cfg.Rows)
	st.MinInt[LShipDate], st.MaxInt[LShipDate], st.IntBounds[LShipDate] = 0, cfg.ShipDays-1, true
	p := SelectivityFilter(cfg, 0.1)
	est := plan.EstimateSelectivity(p, st)
	if est < 0.05 || est > 0.2 {
		t.Errorf("estimated selectivity %.4f for 10%% filter", est)
	}
}

func TestQueryTemplates(t *testing.T) {
	ps := PricingSummary()
	if len(ps.GroupCols) != 1 || ps.GroupCols[0] != LReturnFlag || len(ps.Aggs) != 4 {
		t.Error("PricingSummary shape wrong")
	}
	pv := PartVolume()
	if pv.GroupCols[0] != LPartKey {
		t.Error("PartVolume shape wrong")
	}
}
