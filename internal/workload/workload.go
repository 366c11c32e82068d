// Package workload provides the data generators and query templates the
// experiments run on: a TPC-H-flavoured lineitem/orders pair (the kind
// of analytics workload the paper's introduction motivates) and generic
// key/value tables with controllable skew and cardinality.
package workload

import (
	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/sim"
)

// Lineitem column indices.
const (
	LOrderKey = iota
	LPartKey
	LSuppKey
	LQuantity
	LExtendedPrice
	LDiscount
	LShipDate
	LReturnFlag
	LComment
)

// LineitemSchema is a compact TPC-H lineitem.
func LineitemSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "l_orderkey", Type: columnar.Int64},
		columnar.Field{Name: "l_partkey", Type: columnar.Int64},
		columnar.Field{Name: "l_suppkey", Type: columnar.Int64},
		columnar.Field{Name: "l_quantity", Type: columnar.Int64},
		columnar.Field{Name: "l_extendedprice", Type: columnar.Float64},
		columnar.Field{Name: "l_discount", Type: columnar.Float64},
		columnar.Field{Name: "l_shipdate", Type: columnar.Int64},
		columnar.Field{Name: "l_returnflag", Type: columnar.String},
		columnar.Field{Name: "l_comment", Type: columnar.String},
	)
}

// LineitemConfig controls generation.
type LineitemConfig struct {
	Rows      int
	Orders    int64 // distinct order keys
	Parts     int64 // distinct part keys (Zipf-distributed)
	Suppliers int64
	// ShipDays is the shipdate domain [0, ShipDays).
	ShipDays int64
	Seed     uint64
}

// DefaultLineitemConfig sizes a table of n rows with TPC-H-ish ratios.
func DefaultLineitemConfig(n int) LineitemConfig {
	orders := int64(n/4 + 1)
	return LineitemConfig{
		Rows:      n,
		Orders:    orders,
		Parts:     int64(n/8 + 1),
		Suppliers: int64(n/40 + 1),
		ShipDays:  2526, // ~7 years, like TPC-H
		Seed:      42,
	}
}

var returnFlags = []string{"A", "N", "R"}
var commentWords = []string{
	"carefully", "final", "deposits", "sleep", "quickly", "special",
	"packages", "ironic", "requests", "regular", "accounts", "bold",
}

// GenLineitem generates the table as one batch.
func GenLineitem(cfg LineitemConfig) *columnar.Batch {
	rng := sim.NewRNG(cfg.Seed)
	partZipf := sim.NewZipf(rng, 1.1, cfg.Parts)
	b := columnar.NewBatch(LineitemSchema(), cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		qty := rng.Int63n(50) + 1
		price := float64(rng.Int63n(100000)) / 100
		disc := float64(rng.Int63n(11)) / 100
		comment := commentWords[rng.Intn(len(commentWords))] + " " +
			commentWords[rng.Intn(len(commentWords))]
		b.AppendRow(
			columnar.IntValue(rng.Int63n(cfg.Orders)),
			columnar.IntValue(partZipf.Next()),
			columnar.IntValue(rng.Int63n(cfg.Suppliers)),
			columnar.IntValue(qty),
			columnar.FloatValue(price),
			columnar.FloatValue(disc),
			columnar.IntValue(rng.Int63n(cfg.ShipDays)),
			columnar.StringValue(returnFlags[rng.Intn(len(returnFlags))]),
			columnar.StringValue(comment),
		)
	}
	return b
}

// Orders column indices.
const (
	OOrderKey = iota
	OCustKey
	OTotalPrice
	OOrderDate
	OStatus
)

// OrdersSchema is a compact TPC-H orders.
func OrdersSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "o_orderkey", Type: columnar.Int64},
		columnar.Field{Name: "o_custkey", Type: columnar.Int64},
		columnar.Field{Name: "o_totalprice", Type: columnar.Float64},
		columnar.Field{Name: "o_orderdate", Type: columnar.Int64},
		columnar.Field{Name: "o_status", Type: columnar.String},
	)
}

// GenOrders generates n orders with keys 0..n-1 (join-compatible with
// lineitem order keys below n).
func GenOrders(n int, seed uint64) *columnar.Batch {
	rng := sim.NewRNG(seed)
	statuses := []string{"O", "F", "P"}
	b := columnar.NewBatch(OrdersSchema(), n)
	for i := 0; i < n; i++ {
		b.AppendRow(
			columnar.IntValue(int64(i)),
			columnar.IntValue(rng.Int63n(int64(n/10+1))),
			columnar.FloatValue(float64(rng.Int63n(50000000))/100),
			columnar.IntValue(rng.Int63n(2526)),
			columnar.StringValue(statuses[rng.Intn(len(statuses))]),
		)
	}
	return b
}

// KVConfig controls generic key/value generation.
type KVConfig struct {
	Rows     int
	Keys     int64   // distinct keys
	ZipfSkew float64 // 0 = uniform
	Seed     uint64
}

// KVSchema is the generic two-column table.
func KVSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Int64},
	)
}

// GenKV generates a key/value batch with the requested key distribution.
func GenKV(cfg KVConfig) *columnar.Batch {
	rng := sim.NewRNG(cfg.Seed)
	var zipf *sim.Zipf
	if cfg.ZipfSkew > 0 {
		zipf = sim.NewZipf(rng, cfg.ZipfSkew, cfg.Keys)
	}
	ks := make([]int64, cfg.Rows)
	vs := make([]int64, cfg.Rows)
	for i := range ks {
		if zipf != nil {
			ks[i] = zipf.Next()
		} else {
			ks[i] = rng.Int63n(cfg.Keys)
		}
		vs[i] = rng.Int63n(1000)
	}
	return columnar.BatchOf(KVSchema(), columnar.FromInt64s(ks), columnar.FromInt64s(vs))
}

// Query templates used across experiments.

// SelectivityFilter returns a shipdate range predicate keeping
// approximately frac of the rows.
func SelectivityFilter(cfg LineitemConfig, frac float64) expr.Predicate {
	if frac <= 0 {
		frac = 1.0 / float64(cfg.Rows)
	}
	if frac > 1 {
		frac = 1
	}
	hi := int64(float64(cfg.ShipDays)*frac) - 1
	if hi < 0 {
		hi = 0
	}
	return expr.NewBetween(LShipDate, 0, hi)
}

// PricingSummary is a TPC-H Q1-shaped aggregation: totals per return
// flag.
func PricingSummary() expr.GroupBy {
	return expr.GroupBy{
		GroupCols: []int{LReturnFlag},
		Aggs: []expr.AggSpec{
			{Func: expr.Count},
			{Func: expr.Sum, Col: LQuantity},
			{Func: expr.Sum, Col: LExtendedPrice},
			{Func: expr.Avg, Col: LDiscount},
		},
	}
}

// PartVolume groups by part key: a high-cardinality aggregation that
// stresses bounded pre-aggregation state.
func PartVolume() expr.GroupBy {
	return expr.GroupBy{
		GroupCols: []int{LPartKey},
		Aggs:      []expr.AggSpec{{Func: expr.Count}, {Func: expr.Sum, Col: LQuantity}},
	}
}

// KVGroupBy is the generic per-key aggregation over a GenKV table.
func KVGroupBy() expr.GroupBy {
	return expr.GroupBy{
		GroupCols: []int{0},
		Aggs:      []expr.AggSpec{{Func: expr.Count}, {Func: expr.Sum, Col: 1}},
	}
}
