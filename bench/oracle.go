package main

import (
	"fmt"
	"math"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/workload"
)

// An oracle is a query's reference answer, computed in this file by a
// plain loop over the generated rows — never by the program under test.
// Result rows are compared order-insensitively: the sum (mod 2^64) of a
// per-row FNV-1a hash does not depend on the order rows arrive in.
type oracle struct {
	rows   int64 // result rows
	sum    uint64
	groups map[string]groupRef // non-nil for the aggregation
	count  bool                // a COUNT(*): one row holding rows

	scratch []uint64 // per-row hashes of the batch being checked
}

// groupRef is one group of the TPC-H Q1-shaped aggregation
// (workload.PricingSummary): COUNT(*), SUM(quantity), SUM(price),
// AVG(discount).
type groupRef struct {
	count    int64
	sumQty   int64
	sumPrice float64
	sumDisc  float64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mixWord(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return mixWord(h, uint64(len(s)))
}

// mixValue folds row i of v into h.
func mixValue(h uint64, v *columnar.Vector, i int) uint64 {
	switch v.Type() {
	case columnar.Int64:
		return mixWord(h, uint64(v.Int64s()[i]))
	case columnar.Float64:
		return mixWord(h, math.Float64bits(v.Float64s()[i]))
	case columnar.String:
		return mixString(h, v.Strings()[i])
	}
	panic("bench: lineitem has no column of type " + v.Type().String())
}

// mixColumn folds every row of v into the per-row hashes, the same way
// mixValue does one row at a time.
func mixColumn(hashes []uint64, v *columnar.Vector) {
	switch v.Type() {
	case columnar.Int64:
		for i, x := range v.Int64s() {
			hashes[i] = mixWord(hashes[i], uint64(x))
		}
	case columnar.Float64:
		for i, x := range v.Float64s() {
			hashes[i] = mixWord(hashes[i], math.Float64bits(x))
		}
	case columnar.String:
		for i, x := range v.Strings() {
			hashes[i] = mixString(hashes[i], x)
		}
	default:
		panic("bench: lineitem has no column of type " + v.Type().String())
	}
}

// hashBatches returns the row count and order-insensitive checksum of
// result batches. It allocates only while scratch grows, so checking a
// result does not disturb the allocation metrics.
func (o *oracle) hashBatches(batches []*columnar.Batch) (rows int64, sum uint64) {
	for _, b := range batches {
		if b.Selection() != nil {
			b = b.Compact()
		}
		n := b.NumRows()
		if cap(o.scratch) < n {
			o.scratch = make([]uint64, n)
		}
		hashes := o.scratch[:n]
		for i := range hashes {
			hashes[i] = fnvOffset
		}
		for c := 0; c < b.NumCols(); c++ {
			mixColumn(hashes, b.Col(c))
		}
		for _, h := range hashes {
			sum += h
		}
		rows += int64(n)
	}
	return rows, sum
}

// scanOracle is the answer to SELECT cols FROM raw WHERE l_shipdate
// BETWEEN lo AND hi.
func scanOracle(raw *columnar.Batch, lo, hi int64, cols []int) *oracle {
	o := &oracle{}
	ship := raw.Col(workload.LShipDate).Int64s()
	for i, d := range ship {
		if d < lo || d > hi {
			continue
		}
		h := uint64(fnvOffset)
		for _, c := range cols {
			h = mixValue(h, raw.Col(c), i)
		}
		o.sum += h
		o.rows++
	}
	return o
}

// aggOracle is the answer to workload.PricingSummary() over the rows
// with l_shipdate BETWEEN lo AND hi.
func aggOracle(raw *columnar.Batch, lo, hi int64) *oracle {
	o := &oracle{groups: map[string]groupRef{}}
	ship := raw.Col(workload.LShipDate).Int64s()
	flag := raw.Col(workload.LReturnFlag).Strings()
	qty := raw.Col(workload.LQuantity).Int64s()
	price := raw.Col(workload.LExtendedPrice).Float64s()
	disc := raw.Col(workload.LDiscount).Float64s()
	for i, d := range ship {
		if d < lo || d > hi {
			continue
		}
		g := o.groups[flag[i]]
		g.count++
		g.sumQty += qty[i]
		g.sumPrice += price[i]
		g.sumDisc += disc[i]
		o.groups[flag[i]] = g
	}
	o.rows = int64(len(o.groups))
	return o
}

// countOracle is the answer to SELECT COUNT(*) over n rows.
func countOracle(n int64) *oracle { return &oracle{rows: n, count: true} }

// floatTol is the relative error allowed on floating-point aggregates:
// the engines add partial sums in a different order than the oracle.
const floatTol = 1e-9

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= floatTol*math.Max(1, math.Abs(want))
}

// check compares every value of a result with the reference.
func (o *oracle) check(res *core.Result) error {
	if res == nil {
		return fmt.Errorf("oracle: no result")
	}
	return o.checkBatches(res.Batches)
}

func (o *oracle) checkBatches(batches []*columnar.Batch) error {
	switch {
	case o.count:
		if len(batches) != 1 || batches[0].NumRows() != 1 || batches[0].NumCols() != 1 {
			return fmt.Errorf("oracle: COUNT(*) returned %d batches", len(batches))
		}
		if got := batches[0].Col(0).Int64s()[0]; got != o.rows {
			return fmt.Errorf("oracle: COUNT(*) = %d, want %d", got, o.rows)
		}
		return nil
	case o.groups != nil:
		return o.checkGroups(batches)
	}
	rows, sum := o.hashBatches(batches)
	if rows != o.rows || sum != o.sum {
		return fmt.Errorf("oracle: %d rows checksum %016x, want %d rows checksum %016x", rows, sum, o.rows, o.sum)
	}
	return nil
}

func (o *oracle) checkGroups(batches []*columnar.Batch) error {
	seen := 0
	for _, b := range batches {
		if b.NumCols() != 5 {
			return fmt.Errorf("oracle: aggregate has %d columns, want 5", b.NumCols())
		}
		flags := b.Col(0).Strings()
		counts, qtys := b.Col(1).Int64s(), b.Col(2).Int64s()
		prices, discs := b.Col(3).Float64s(), b.Col(4).Float64s()
		for i, f := range flags {
			want, ok := o.groups[f]
			if !ok {
				return fmt.Errorf("oracle: unexpected group %q", f)
			}
			if counts[i] != want.count || qtys[i] != want.sumQty ||
				!closeTo(prices[i], want.sumPrice) || !closeTo(discs[i], want.sumDisc/float64(want.count)) {
				return fmt.Errorf("oracle: group %q = (%d, %d, %g, %g), want (%d, %d, %g, %g)", f,
					counts[i], qtys[i], prices[i], discs[i],
					want.count, want.sumQty, want.sumPrice, want.sumDisc/float64(want.count))
			}
			seen++
		}
	}
	if seen != len(o.groups) {
		return fmt.Errorf("oracle: %d groups, want %d", seen, len(o.groups))
	}
	return nil
}
