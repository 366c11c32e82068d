package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// End-to-end: SQL text -> parser -> both engines -> identical answers.
func TestSQLEndToEnd(t *testing.T) {
	df, vo, _ := newEngines(t)
	statements := []string{
		"SELECT l_returnflag, COUNT(*), SUM(l_quantity), AVG(l_discount) FROM lineitem GROUP BY l_returnflag",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 1 AND 10",
		"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate < 100",
		"SELECT l_returnflag, COUNT(*) FROM lineitem WHERE l_comment LIKE '%ironic%' GROUP BY l_returnflag",
		"SELECT l_partkey, SUM(l_quantity) FROM lineitem GROUP BY l_partkey ORDER BY 2 LIMIT 5",
		"SELECT MIN(l_quantity), MAX(l_quantity) FROM lineitem WHERE NOT l_returnflag = 'A'",
	}
	for _, sql := range statements {
		q, err := sqlparse.Parse(sql, df)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		dfRes, err := df.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%q dataflow: %v", sql, err)
		}
		// Re-parse against the volcano catalog (same schema) for a
		// fully independent path.
		qv, err := sqlparse.Parse(sql, vo)
		if err != nil {
			t.Fatalf("%q volcano parse: %v", sql, err)
		}
		voRes, err := vo.Execute(context.Background(), qv)
		if err != nil {
			t.Fatalf("%q volcano: %v", sql, err)
		}
		if q.Limit > 0 {
			// LIMIT results can legitimately differ in membership when
			// rows tie on the sort key; compare counts only.
			if dfRes.Rows() != voRes.Rows() {
				t.Errorf("%q: limited row counts differ: %d vs %d", sql, dfRes.Rows(), voRes.Rows())
			}
			continue
		}
		assertSameResults(t, dfRes, voRes)
	}
}

func TestSQLCatalogErrors(t *testing.T) {
	df, _, _ := newEngines(t)
	if _, err := sqlparse.Parse("SELECT * FROM ghost", df); err == nil {
		t.Error("unknown table parsed")
	}
	if _, err := sqlparse.Parse("SELECT nope FROM lineitem", df); err == nil {
		t.Error("unknown column parsed")
	}
}

func TestSQLPushdownStillHappens(t *testing.T) {
	df, _, _ := newEngines(t)
	q, err := sqlparse.Parse(
		"SELECT l_extendedprice FROM lineitem WHERE l_quantity < 5", df)
	if err != nil {
		t.Fatal(err)
	}
	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// SQL-originated queries go through the same optimizer: the filter
	// must land on the storage processor.
	if res.Stats.DeviceBusy["storage.proc"] == 0 {
		t.Error("SQL query did not engage the storage processor")
	}
	if res.Rows() != int64(q.Limit) && res.Rows() == 0 {
		t.Error("empty result")
	}
}

// SUM, AVG, MIN and MAX fold numbers: over a VARCHAR or BOOLEAN column the
// statement is refused with an error, never run into a panic on a stage
// goroutine. COUNT(col) stays valid for every type.
func TestSQLRefusesNonNumericAggregates(t *testing.T) {
	df, _, _ := newEngines(t)
	for _, sql := range []string{
		"SELECT l_returnflag, MIN(l_comment) FROM lineitem GROUP BY l_returnflag",
		"SELECT l_returnflag, MAX(l_comment) FROM lineitem GROUP BY l_returnflag",
		"SELECT SUM(l_returnflag) FROM lineitem",
		"SELECT l_returnflag, AVG(l_comment) FROM lineitem GROUP BY l_returnflag",
	} {
		q, err := sqlparse.Parse(sql, df)
		if err == nil {
			_, err = df.Execute(context.Background(), q)
		}
		if err == nil || !strings.Contains(err.Error(), "is not valid") {
			t.Errorf("%q: err = %v, want one naming the function and the column type", sql, err)
		}
	}
	q, err := sqlparse.Parse("SELECT l_returnflag, COUNT(l_comment) FROM lineitem GROUP BY l_returnflag", df)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Execute(context.Background(), q); err != nil {
		t.Errorf("COUNT over a VARCHAR column: %v", err)
	}
}
