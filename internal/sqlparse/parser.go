package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/plan"
)

// Catalog resolves table names to schemas, so the parser can map column
// names to indices and types.
type Catalog interface {
	TableSchema(name string) (*columnar.Schema, error)
}

// StripExplainAnalyze removes a leading EXPLAIN ANALYZE (case-insensitive,
// any spacing) from sql, reporting whether it was present; the CLIs trace
// the statement that remains. Without the prefix sql comes back untouched.
func StripExplainAnalyze(sql string) (string, bool) {
	fields := strings.Fields(sql)
	if len(fields) < 2 || !strings.EqualFold(fields[0], "EXPLAIN") || !strings.EqualFold(fields[1], "ANALYZE") {
		return sql, false
	}
	rest := strings.TrimSpace(sql)[len(fields[0]):]
	rest = strings.TrimSpace(rest)[len(fields[1]):]
	return strings.TrimSpace(rest), true
}

// Parse compiles one SELECT statement into a plan.Query.
func Parse(sql string, cat Catalog) (*plan.Query, error) {
	tokens, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens, cat: cat}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	tokens []token
	pos    int
	cat    Catalog
	schema *columnar.Schema
}

func (p *parser) peek() token { return p.tokens[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) advance() token {
	t := p.tokens[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// keyword consumes an identifier equal (case-insensitively) to kw.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// selectItem is one parsed select-list entry.
type selectItem struct {
	isAgg bool
	agg   expr.AggSpec
	col   int
}

func (p *parser) parseSelect() (*plan.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	// The select list references columns, but FROM comes later; scan
	// ahead for the table name first.
	items, star, err := p.parseSelectListRaw()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl := p.advance()
	if tbl.kind != tokIdent {
		return nil, p.errf("expected table name, got %q", tbl.text)
	}
	schema, err := p.cat.TableSchema(tbl.text)
	if err != nil {
		return nil, err
	}
	p.schema = schema

	q := plan.NewQuery(tbl.text)

	// Resolve the select list now that the schema is known.
	resolved, err := p.resolveItems(items)
	if err != nil {
		return nil, err
	}

	if p.keyword("WHERE") {
		pred, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.WithFilter(pred)
	}

	var groupCols []int
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			groupCols = append(groupCols, col)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
	}

	// Assemble projection/aggregation from the select list.
	if err := assembleSelect(q, resolved, star, groupCols); err != nil {
		return nil, err
	}

	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		n := p.advance()
		if n.kind != tokNumber {
			return nil, p.errf("ORDER BY takes a 1-based output column number, got %q", n.text)
		}
		idx, err := strconv.Atoi(n.text)
		if err != nil || idx < 1 {
			return nil, p.errf("bad ORDER BY column %q", n.text)
		}
		q.WithOrderBy(idx - 1)
	}
	if p.keyword("LIMIT") {
		n := p.advance()
		if n.kind != tokNumber {
			return nil, p.errf("LIMIT takes a number, got %q", n.text)
		}
		lim, err := strconv.Atoi(n.text)
		if err != nil || lim < 1 {
			return nil, p.errf("bad LIMIT %q", n.text)
		}
		q.WithLimit(lim)
	}
	return q, nil
}

// rawItem is a select-list entry before schema resolution.
type rawItem struct {
	aggFunc string // "" for a plain column
	column  string // "*" only for COUNT(*)
	pos     int
}

func (p *parser) parseSelectListRaw() ([]rawItem, bool, error) {
	if p.peek().kind == tokStar {
		p.advance()
		return nil, true, nil
	}
	var items []rawItem
	for {
		t := p.advance()
		if t.kind != tokIdent {
			return nil, false, p.errf("expected column or aggregate, got %q", t.text)
		}
		upper := strings.ToUpper(t.text)
		switch upper {
		case "COUNT", "SUM", "MIN", "MAX", "AVG":
			if p.peek().kind == tokLParen {
				p.advance()
				arg := p.advance()
				if upper == "COUNT" && arg.kind == tokStar {
					items = append(items, rawItem{aggFunc: "COUNT", column: "*", pos: t.pos})
				} else if arg.kind == tokIdent {
					items = append(items, rawItem{aggFunc: upper, column: arg.text, pos: t.pos})
				} else {
					return nil, false, p.errf("bad aggregate argument %q", arg.text)
				}
				if p.advance().kind != tokRParen {
					return nil, false, p.errf("expected ')' after aggregate")
				}
				break
			}
			// An identifier that happens to look like a function name.
			items = append(items, rawItem{column: t.text, pos: t.pos})
		default:
			items = append(items, rawItem{column: t.text, pos: t.pos})
		}
		if p.peek().kind != tokComma {
			return items, false, nil
		}
		p.advance()
	}
}

func (p *parser) resolveItems(items []rawItem) ([]selectItem, error) {
	out := make([]selectItem, 0, len(items))
	for _, it := range items {
		if it.aggFunc != "" {
			spec := expr.AggSpec{}
			switch it.aggFunc {
			case "COUNT":
				spec.Func = expr.Count
			case "SUM":
				spec.Func = expr.Sum
			case "MIN":
				spec.Func = expr.Min
			case "MAX":
				spec.Func = expr.Max
			case "AVG":
				spec.Func = expr.Avg
			}
			if it.column != "*" {
				col := p.schema.FieldIndex(it.column)
				if col < 0 {
					return nil, fmt.Errorf("sql: offset %d: unknown column %q", it.pos, it.column)
				}
				spec.Col = col
				// COUNT reads no value; the rest fold numbers.
				if t := p.schema.Fields[col].Type; spec.Func != expr.Count && t != columnar.Int64 && t != columnar.Float64 {
					return nil, fmt.Errorf("sql: offset %d: %s over %s column %q is not valid", it.pos, it.aggFunc, t, it.column)
				}
			} else if spec.Func != expr.Count {
				return nil, fmt.Errorf("sql: offset %d: %s(*) is not valid", it.pos, it.aggFunc)
			}
			out = append(out, selectItem{isAgg: true, agg: spec})
			continue
		}
		col := p.schema.FieldIndex(it.column)
		if col < 0 {
			return nil, fmt.Errorf("sql: offset %d: unknown column %q", it.pos, it.column)
		}
		out = append(out, selectItem{col: col})
	}
	return out, nil
}

// assembleSelect turns the resolved list into projection, aggregation or
// count-only form.
func assembleSelect(q *plan.Query, items []selectItem, star bool, groupCols []int) error {
	hasAgg := false
	for _, it := range items {
		if it.isAgg {
			hasAgg = true
		}
	}
	switch {
	case star:
		if len(groupCols) > 0 {
			return fmt.Errorf("sql: SELECT * with GROUP BY is not supported")
		}
		return nil // full projection
	case hasAgg:
		// Bare COUNT(*) with no grouping and no other items is the
		// count-only fast path.
		if len(items) == 1 && items[0].isAgg && items[0].agg.Func == expr.Count && len(groupCols) == 0 {
			q.WithCount()
			return nil
		}
		g := expr.GroupBy{GroupCols: groupCols}
		plainSeen := 0
		for _, it := range items {
			if it.isAgg {
				g.Aggs = append(g.Aggs, it.agg)
				continue
			}
			// Plain columns in an aggregate query must match GROUP BY
			// columns positionally.
			if plainSeen >= len(groupCols) || groupCols[plainSeen] != it.col {
				return fmt.Errorf("sql: selected column %d is not in GROUP BY", it.col)
			}
			plainSeen++
		}
		q.WithGroupBy(g)
		return nil
	default:
		if len(groupCols) > 0 {
			return fmt.Errorf("sql: GROUP BY without aggregates is not supported")
		}
		cols := make([]int, len(items))
		for i, it := range items {
			cols[i] = it.col
		}
		q.WithProjection(cols...)
		return nil
	}
}

// Predicate grammar: OR -> AND -> NOT/primary.

func (p *parser) parseOr() (expr.Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	preds := []expr.Predicate{left}
	for p.keyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		preds = append(preds, right)
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return expr.NewOr(preds...), nil
}

func (p *parser) parseAnd() (expr.Predicate, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	preds := []expr.Predicate{left}
	for {
		// AND also appears inside BETWEEN, which parseUnary consumes
		// before returning; any AND here is a conjunction.
		if !p.keyword("AND") {
			break
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		preds = append(preds, right)
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return expr.NewAnd(preds...), nil
}

func (p *parser) parseUnary() (expr.Predicate, error) {
	if p.keyword("NOT") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return expr.NewNot(inner), nil
	}
	if p.peek().kind == tokLParen {
		p.advance()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.advance().kind != tokRParen {
			return nil, p.errf("expected ')'")
		}
		return inner, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr.Predicate, error) {
	col, err := p.parseColumnRef()
	if err != nil {
		return nil, err
	}
	colType := p.schema.Fields[col].Type

	if p.keyword("BETWEEN") {
		lo, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		if colType != columnar.Int64 {
			return nil, p.errf("BETWEEN requires a BIGINT column")
		}
		return expr.NewBetween(col, lo, hi), nil
	}
	if p.keyword("LIKE") {
		s := p.advance()
		if s.kind != tokString {
			return nil, p.errf("LIKE takes a string literal")
		}
		if colType != columnar.String {
			return nil, p.errf("LIKE requires a VARCHAR column")
		}
		pattern := strings.Trim(s.text, "%")
		return expr.NewLike(col, pattern), nil
	}

	opTok := p.advance()
	if opTok.kind != tokOp {
		return nil, p.errf("expected comparison operator, got %q", opTok.text)
	}
	var op expr.CmpOp
	switch opTok.text {
	case "=":
		op = expr.Eq
	case "!=", "<>":
		op = expr.Ne
	case "<":
		op = expr.Lt
	case "<=":
		op = expr.Le
	case ">":
		op = expr.Gt
	case ">=":
		op = expr.Ge
	}
	val, err := p.parseLiteral(colType)
	if err != nil {
		return nil, err
	}
	return expr.NewCmp(col, op, val), nil
}

func (p *parser) parseColumnRef() (int, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return 0, p.errf("expected column name, got %q", t.text)
	}
	col := p.schema.FieldIndex(t.text)
	if col < 0 {
		return 0, fmt.Errorf("sql: offset %d: unknown column %q", t.pos, t.text)
	}
	return col, nil
}

func (p *parser) parseIntLiteral() (int64, error) {
	t := p.advance()
	if t.kind != tokNumber {
		return 0, p.errf("expected integer, got %q", t.text)
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return v, nil
}

// parseLiteral reads a literal matching the column type.
func (p *parser) parseLiteral(want columnar.Type) (columnar.Value, error) {
	t := p.advance()
	switch t.kind {
	case tokNumber:
		switch want {
		case columnar.Int64:
			v, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return columnar.Value{}, p.errf("bad integer %q", t.text)
			}
			return columnar.IntValue(v), nil
		case columnar.Float64:
			v, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return columnar.Value{}, p.errf("bad number %q", t.text)
			}
			return columnar.FloatValue(v), nil
		}
		return columnar.Value{}, p.errf("numeric literal for non-numeric column")
	case tokString:
		if want != columnar.String {
			return columnar.Value{}, p.errf("string literal for non-string column")
		}
		return columnar.StringValue(t.text), nil
	case tokIdent:
		if strings.EqualFold(t.text, "TRUE") || strings.EqualFold(t.text, "FALSE") {
			if want != columnar.Bool {
				return columnar.Value{}, p.errf("boolean literal for non-boolean column")
			}
			return columnar.BoolValue(strings.EqualFold(t.text, "TRUE")), nil
		}
	}
	return columnar.Value{}, p.errf("expected literal, got %q", t.text)
}
