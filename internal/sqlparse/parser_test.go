package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/plan"
)

type fakeCatalog struct{}

func (fakeCatalog) TableSchema(name string) (*columnar.Schema, error) {
	if name != "lineitem" {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return columnar.NewSchema(
		columnar.Field{Name: "orderkey", Type: columnar.Int64},
		columnar.Field{Name: "qty", Type: columnar.Int64},
		columnar.Field{Name: "price", Type: columnar.Float64},
		columnar.Field{Name: "flag", Type: columnar.String},
		columnar.Field{Name: "returned", Type: columnar.Bool},
	), nil
}

func parse(t *testing.T, sql string) *plan.Query {
	t.Helper()
	q, err := Parse(sql, fakeCatalog{})
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return q
}

// TestStripExplainAnalyze covers what both CLIs hand it: dfquery's -sql
// flag text as the user quoted it, and dfshell's trimmed input line.
func TestStripExplainAnalyze(t *testing.T) {
	for _, tc := range []struct {
		in, rest string
		stripped bool
	}{
		{"EXPLAIN ANALYZE SELECT * FROM lineitem", "SELECT * FROM lineitem", true},
		{"  explain\tAnalyze   SELECT count(*) FROM lineitem  ", "SELECT count(*) FROM lineitem", true},
		{"Explain\nanalyze\nSELECT qty FROM lineitem", "SELECT qty FROM lineitem", true},
		{"EXPLAIN ANALYZE", "", true},
		// Not the two-word prefix: returned untouched, spacing included.
		{"  SELECT * FROM lineitem ", "  SELECT * FROM lineitem ", false},
		{"EXPLAIN SELECT * FROM lineitem", "EXPLAIN SELECT * FROM lineitem", false},
		{"EXPLAINANALYZE SELECT 1", "EXPLAINANALYZE SELECT 1", false},
		{"SELECT explain, analyze FROM lineitem", "SELECT explain, analyze FROM lineitem", false},
		{"", "", false},
	} {
		rest, stripped := StripExplainAnalyze(tc.in)
		if rest != tc.rest || stripped != tc.stripped {
			t.Errorf("StripExplainAnalyze(%q) = %q, %v; want %q, %v", tc.in, rest, stripped, tc.rest, tc.stripped)
		}
	}
}

func TestParseStarQuery(t *testing.T) {
	q := parse(t, "SELECT * FROM lineitem")
	if q.Table != "lineitem" || q.Projection != nil || q.Filter != nil || q.GroupBy != nil {
		t.Errorf("query = %+v", q)
	}
}

func TestParseProjection(t *testing.T) {
	q := parse(t, "select price, orderkey from lineitem")
	if len(q.Projection) != 2 || q.Projection[0] != 2 || q.Projection[1] != 0 {
		t.Errorf("projection = %v", q.Projection)
	}
}

func TestParseWhereComparisons(t *testing.T) {
	cases := []struct {
		sql  string
		want string // expected predicate String()
	}{
		{"SELECT * FROM lineitem WHERE qty < 5", "col1 < 5"},
		{"SELECT * FROM lineitem WHERE qty >= 10", "col1 >= 10"},
		{"SELECT * FROM lineitem WHERE qty != 3", "col1 <> 3"},
		{"SELECT * FROM lineitem WHERE qty <> 3", "col1 <> 3"},
		{"SELECT * FROM lineitem WHERE price > 9.5", "col2 > 9.5"},
		{"SELECT * FROM lineitem WHERE flag = 'A'", "col3 = A"},
		{"SELECT * FROM lineitem WHERE returned = TRUE", "col4 = true"},
		{"SELECT * FROM lineitem WHERE qty BETWEEN 3 AND 7", "col1 BETWEEN 3 AND 7"},
		{"SELECT * FROM lineitem WHERE flag LIKE '%ab%'", "col3 LIKE '%ab%'"},
		{"SELECT * FROM lineitem WHERE qty = -5", "col1 = -5"},
	}
	for _, tc := range cases {
		q := parse(t, tc.sql)
		if got := q.Filter.String(); got != tc.want {
			t.Errorf("%q filter = %q, want %q", tc.sql, got, tc.want)
		}
	}
}

func TestParseBooleanStructure(t *testing.T) {
	q := parse(t, "SELECT * FROM lineitem WHERE qty < 5 AND (flag = 'A' OR flag = 'B') AND NOT returned = TRUE")
	and, ok := q.Filter.(*expr.And)
	if !ok {
		t.Fatalf("top level is %T, want AND", q.Filter)
	}
	if len(and.Preds) != 3 {
		t.Fatalf("AND arity = %d", len(and.Preds))
	}
	if _, ok := and.Preds[1].(*expr.Or); !ok {
		t.Errorf("middle term is %T, want OR", and.Preds[1])
	}
	if _, ok := and.Preds[2].(*expr.Not); !ok {
		t.Errorf("last term is %T, want NOT", and.Preds[2])
	}
}

func TestParseBetweenInsideAnd(t *testing.T) {
	// BETWEEN's AND must not terminate the conjunction.
	q := parse(t, "SELECT * FROM lineitem WHERE qty BETWEEN 1 AND 10 AND orderkey < 100")
	and, ok := q.Filter.(*expr.And)
	if !ok || len(and.Preds) != 2 {
		t.Fatalf("filter = %s", q.Filter)
	}
}

func TestParseCountOnly(t *testing.T) {
	q := parse(t, "SELECT COUNT(*) FROM lineitem WHERE qty < 5")
	if !q.CountOnly || q.GroupBy != nil {
		t.Errorf("query = %+v", q)
	}
}

func TestParseGroupBy(t *testing.T) {
	q := parse(t, "SELECT flag, COUNT(*), SUM(qty), AVG(price) FROM lineitem GROUP BY flag")
	if q.GroupBy == nil {
		t.Fatal("no group by")
	}
	g := q.GroupBy
	if len(g.GroupCols) != 1 || g.GroupCols[0] != 3 {
		t.Errorf("group cols = %v", g.GroupCols)
	}
	if len(g.Aggs) != 3 || g.Aggs[0].Func != expr.Count || g.Aggs[1].Func != expr.Sum ||
		g.Aggs[1].Col != 1 || g.Aggs[2].Func != expr.Avg || g.Aggs[2].Col != 2 {
		t.Errorf("aggs = %v", g.Aggs)
	}
}

func TestParseScalarAggregates(t *testing.T) {
	q := parse(t, "SELECT MIN(qty), MAX(qty) FROM lineitem")
	if q.GroupBy == nil || len(q.GroupBy.GroupCols) != 0 || len(q.GroupBy.Aggs) != 2 {
		t.Errorf("query = %+v", q.GroupBy)
	}
}

func TestParseOrderLimit(t *testing.T) {
	q := parse(t, "SELECT flag, COUNT(*) FROM lineitem GROUP BY flag ORDER BY 2 LIMIT 10")
	if q.OrderBy != 1 || q.Limit != 10 {
		t.Errorf("orderby=%d limit=%d", q.OrderBy, q.Limit)
	}
}

func TestParseStringEscapes(t *testing.T) {
	q := parse(t, "SELECT * FROM lineitem WHERE flag = 'it''s'")
	cmp := q.Filter.(*expr.Cmp)
	if cmp.Val.S != "it's" {
		t.Errorf("string literal = %q", cmp.Val.S)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		sql     string
		wantSub string
	}{
		{"", "expected SELECT"},
		{"SELECT FROM lineitem", "expected FROM"},
		{"SELECT * FROM", "expected table name"},
		{"SELECT * FROM ghost", "unknown table"},
		{"SELECT nope FROM lineitem", "unknown column"},
		{"SELECT * FROM lineitem WHERE", "expected column name"},
		{"SELECT * FROM lineitem WHERE qty", "expected comparison"},
		{"SELECT * FROM lineitem WHERE qty <", "expected literal"},
		{"SELECT * FROM lineitem WHERE qty = 'x'", "string literal for non-string"},
		{"SELECT * FROM lineitem WHERE flag = 5", "numeric literal for non-numeric"},
		{"SELECT * FROM lineitem WHERE price BETWEEN 1 AND 2", "BETWEEN requires"},
		{"SELECT * FROM lineitem WHERE qty LIKE '%x%'", "LIKE requires"},
		{"SELECT * FROM lineitem WHERE flag LIKE 5", "LIKE takes a string"},
		{"SELECT * FROM lineitem trailing", "trailing input"},
		{"SELECT SUM(*) FROM lineitem", "bad aggregate argument"},
		{"SELECT qty FROM lineitem GROUP BY qty", "GROUP BY without aggregates"},
		{"SELECT price, COUNT(*) FROM lineitem GROUP BY flag", "not in GROUP BY"},
		{"SELECT * FROM lineitem GROUP BY flag", "not supported"},
		{"SELECT * FROM lineitem ORDER BY zero", "output column number"},
		{"SELECT * FROM lineitem LIMIT -3", "bad LIMIT"},
		{"SELECT * FROM lineitem WHERE qty = 5 OR", "expected column name"},
		{"SELECT * FROM lineitem WHERE (qty = 5", "expected ')'"},
		{"SELECT * FROM lineitem WHERE flag = 'unterminated", "unterminated string"},
		{"SELECT * FROM lineitem WHERE qty ! 5", "unexpected '!'"},
		{"SELECT * FROM lineitem WHERE qty = 5 ; DROP", "unexpected character"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.sql, fakeCatalog{})
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.sql, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error = %q, want substring %q", tc.sql, err, tc.wantSub)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q := parse(t, "select flag, count(*) from lineitem where qty between 1 and 5 group by flag order by 2 limit 3")
	if q.GroupBy == nil || q.Limit != 3 || q.OrderBy != 1 || q.Filter == nil {
		t.Errorf("query = %+v", q)
	}
}

func TestParsedQueryStringRoundTrips(t *testing.T) {
	// The produced query must render and validate.
	q := parse(t, "SELECT flag, COUNT(*) FROM lineitem WHERE qty < 5 GROUP BY flag")
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "GROUP BY") {
		t.Errorf("String() = %q", q.String())
	}
}

func TestIdentifierLikeAggregateName(t *testing.T) {
	// A column literally named "sum" must still work when not followed
	// by parens — the schema has none, so check error path mentions the
	// column, not a syntax failure.
	_, err := Parse("SELECT sum FROM lineitem", fakeCatalog{})
	if err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Errorf("err = %v", err)
	}
}
