package asaql

import (
	"fmt"
	"strconv"
	"strings"

	"factorwindows/internal/agg"
	"factorwindows/internal/window"
)

// NamedWindow pairs a window with the label given in the query.
type NamedWindow struct {
	Name string
	W    window.Window
}

// AggCall is one aggregate call in the SELECT list, e.g. MIN(T) AS MinT,
// PERCENTILE(T, 0.95), COUNT(DISTINCT T) or TOPK(T, 3). Param holds the
// finalize-time parameter of the parameterized forms (φ for PERCENTILE,
// rank k for TOPK; the function default is filled in when omitted) and
// is 0 for every other function.
type AggCall struct {
	Fn     agg.Fn
	Column string
	Alias  string
	Param  float64
}

// Condition is one WHERE conjunct: Column Op Value, with Op one of
// < <= > >= = !=. The column must be the query's value column or its key
// column.
type Condition struct {
	Column string
	Op     string
	Value  float64
}

// Query is a parsed multi-window aggregate query.
type Query struct {
	// KeyColumn is the grouping key (e.g. DeviceID).
	KeyColumn string
	// Fn, ValueColumn and Param mirror the first aggregate call, e.g.
	// MIN(T) or PERCENTILE(T, 0.95); Aggregates holds every call when the
	// SELECT list has several.
	Fn          agg.Fn
	ValueColumn string
	Param       float64
	// Alias is the AS name of the first aggregate, if given.
	Alias string
	// Aggregates lists every aggregate call in SELECT order. All calls
	// reference the same value column (the event model carries one value).
	Aggregates []AggCall
	// Where holds the conjuncts of the WHERE clause, applied as an event
	// pre-filter before any window sees the event.
	Where []Condition
	// Input and TimestampBy come from the FROM clause.
	Input       string
	TimestampBy string
	// Windows is the query's window set in declaration order; ranges and
	// slides are normalized to ticks (seconds, unless "tick" units were
	// used throughout).
	Windows []NamedWindow
	// SelectsWindowID reports whether System.Window().Id was projected.
	SelectsWindowID bool
}

// Set returns the query's windows as a window.Set.
func (q *Query) Set() (*window.Set, error) {
	set := &window.Set{}
	for _, nw := range q.Windows {
		if err := set.Add(nw.W); err != nil {
			return nil, fmt.Errorf("asaql: window %q: %w", nw.Name, err)
		}
	}
	return set, nil
}

// unitTicks maps time-unit keywords to ticks. One tick is one second for
// the calendar units; the "tick" unit addresses the engine granularity
// directly (our tests and benchmarks use it for compact numbers).
var unitTicks = map[string]int64{
	"tick":    1,
	"ticks":   1,
	"second":  1,
	"seconds": 1,
	"minute":  60,
	"minutes": 60,
	"hour":    3600,
	"hours":   3600,
	"day":     86400,
	"days":    86400,
}

// Parse parses one ASA-style query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return token{}, fmt.Errorf("asaql: expected %v but found %v %q at offset %d",
			kind, t.kind, t.text, t.pos)
	}
	return p.advance(), nil
}

// expectKeyword consumes an identifier equal (case-insensitively) to kw.
func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("asaql: expected keyword %s at offset %d (found %q)", kw, t.pos, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.parseSelectList(q); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	in, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	q.Input = in.text
	if p.atKeyword("TIMESTAMP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		ts, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		q.TimestampBy = ts.text
	}
	if p.atKeyword("WHERE") {
		p.advance()
		if err := p.parseWhere(q); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("GROUP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("BY"); err != nil {
		return nil, err
	}
	if err := p.parseGroupBy(q); err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("asaql: trailing input %q at offset %d", t.text, t.pos)
	}
	if err := validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

// parseSelectList handles: key column, optional System.Window().Id, and
// exactly one aggregate call with optional AS alias, in any order.
func (p *parser) parseSelectList(q *Query) error {
	for {
		if err := p.parseSelectItem(q); err != nil {
			return err
		}
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		return nil
	}
}

func (p *parser) parseSelectItem(q *Query) error {
	t, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	// System.Window().Id
	if strings.EqualFold(t.text, "System") && p.peek().kind == tokDot {
		return p.parseWindowID(q)
	}
	// Aggregate call: IDENT '(' [DISTINCT] column [, param] ')' [AS alias]
	if p.peek().kind == tokLParen {
		fn, err := agg.ParseFn(t.text)
		if err != nil {
			return fmt.Errorf("asaql: %v at offset %d", err, t.pos)
		}
		p.advance() // (
		// COUNT(DISTINCT v) selects the sketch-backed distinct count. The
		// DISTINCT keyword reads ahead one token so a column literally
		// named "distinct" (COUNT(distinct)) keeps parsing as plain COUNT.
		if fn == agg.Count && p.atKeyword("DISTINCT") &&
			p.toks[p.pos+1].kind == tokIdent {
			p.advance()
			fn = agg.Distinct
		}
		col, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		param := agg.DefaultParam(fn)
		if p.peek().kind == tokComma {
			p.advance()
			num, err := p.expect(tokNumber)
			if err != nil {
				return err
			}
			v, err := strconv.ParseFloat(num.text, 64)
			if err != nil {
				return fmt.Errorf("asaql: bad number %q at offset %d", num.text, num.pos)
			}
			if fn != agg.Percentile && fn != agg.TopK {
				return fmt.Errorf("asaql: %v takes one argument at offset %d", fn, num.pos)
			}
			param = v
		}
		if err := agg.ValidateParam(fn, param); err != nil {
			return fmt.Errorf("asaql: %v at offset %d", err, t.pos)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
		if q.ValueColumn != "" && !strings.EqualFold(q.ValueColumn, col.text) {
			return fmt.Errorf("asaql: aggregate columns %q and %q differ at offset %d; events carry one value column",
				q.ValueColumn, col.text, t.pos)
		}
		call := AggCall{Fn: fn, Column: col.text, Param: param}
		if p.atKeyword("AS") {
			p.advance()
			alias, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			call.Alias = alias.text
		}
		// PERCENTILE(v, 0.5), PERCENTILE(v, 0.99) are two calls; only the
		// same function under the same parameter repeats itself.
		for _, prev := range q.Aggregates {
			if prev.Fn == fn && prev.Param == param {
				return fmt.Errorf("asaql: duplicate aggregate %v at offset %d", fn, t.pos)
			}
		}
		q.Aggregates = append(q.Aggregates, call)
		if len(q.Aggregates) == 1 {
			q.Fn = fn
			q.ValueColumn = call.Column
			q.Alias = call.Alias
			q.Param = call.Param
		}
		return nil
	}
	// Plain column: the grouping key.
	if q.KeyColumn != "" && !strings.EqualFold(q.KeyColumn, t.text) {
		return fmt.Errorf("asaql: multiple plain columns (%q, %q); one grouping key is supported",
			q.KeyColumn, t.text)
	}
	q.KeyColumn = t.text
	return nil
}

// parseWindowID consumes ".Window().Id" after "System".
func (p *parser) parseWindowID(q *Query) error {
	for _, step := range []struct {
		kind tokenKind
		text string
	}{
		{tokDot, "."}, {tokIdent, "Window"}, {tokLParen, "("}, {tokRParen, ")"},
		{tokDot, "."}, {tokIdent, "Id"},
	} {
		t := p.peek()
		if t.kind != step.kind || (step.kind == tokIdent && !strings.EqualFold(t.text, step.text)) {
			return fmt.Errorf("asaql: malformed System.Window().Id at offset %d", t.pos)
		}
		p.advance()
	}
	q.SelectsWindowID = true
	return nil
}

// parseWhere handles: cond (AND cond)*, with cond := column op number or
// number op column (the latter is normalized by flipping the operator).
func (p *parser) parseWhere(q *Query) error {
	for {
		cond, err := p.parseCondition()
		if err != nil {
			return err
		}
		q.Where = append(q.Where, cond)
		if p.atKeyword("AND") {
			p.advance()
			continue
		}
		return nil
	}
}

var flippedOp = map[string]string{
	"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!=",
}

func (p *parser) parseCondition() (Condition, error) {
	var cond Condition
	t := p.peek()
	switch t.kind {
	case tokIdent:
		p.advance()
		cond.Column = t.text
		op, err := p.expect(tokOp)
		if err != nil {
			return cond, err
		}
		cond.Op = op.text
		num, err := p.expect(tokNumber)
		if err != nil {
			return cond, err
		}
		v, err := strconv.ParseFloat(num.text, 64)
		if err != nil {
			return cond, fmt.Errorf("asaql: bad number %q at offset %d", num.text, num.pos)
		}
		cond.Value = v
		return cond, nil
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return cond, fmt.Errorf("asaql: bad number %q at offset %d", t.text, t.pos)
		}
		cond.Value = v
		op, err := p.expect(tokOp)
		if err != nil {
			return cond, err
		}
		cond.Op = flippedOp[op.text]
		col, err := p.expect(tokIdent)
		if err != nil {
			return cond, err
		}
		cond.Column = col.text
		return cond, nil
	default:
		return cond, fmt.Errorf("asaql: expected column or number in WHERE at offset %d (found %q)", t.pos, t.text)
	}
}

// Matches evaluates the condition against a (key, value) pair given the
// query's column mapping: the value column reads value, the key column
// reads the numeric key.
func (c Condition) Matches(v float64) bool {
	switch c.Op {
	case "<":
		return v < c.Value
	case "<=":
		return v <= c.Value
	case ">":
		return v > c.Value
	case ">=":
		return v >= c.Value
	case "=":
		return v == c.Value
	default: // "!="
		return v != c.Value
	}
}

// Filter compiles the WHERE clause into an event predicate, resolving
// each condition's column against the query's value and key columns.
// A nil predicate (with nil error) means there is no WHERE clause.
func (q *Query) Filter() (func(key uint64, value float64) bool, error) {
	if len(q.Where) == 0 {
		return nil, nil
	}
	type bound struct {
		onKey bool
		cond  Condition
	}
	bounds := make([]bound, 0, len(q.Where))
	for _, c := range q.Where {
		switch {
		case strings.EqualFold(c.Column, q.ValueColumn):
			bounds = append(bounds, bound{onKey: false, cond: c})
		case strings.EqualFold(c.Column, q.KeyColumn):
			bounds = append(bounds, bound{onKey: true, cond: c})
		default:
			return nil, fmt.Errorf("asaql: WHERE column %q is neither value column %q nor key column %q",
				c.Column, q.ValueColumn, q.KeyColumn)
		}
	}
	return func(key uint64, value float64) bool {
		for _, b := range bounds {
			v := value
			if b.onKey {
				v = float64(key)
			}
			if !b.cond.Matches(v) {
				return false
			}
		}
		return true
	}, nil
}

// parseGroupBy handles: key, Windows( Window(...), ... ).
func (p *parser) parseGroupBy(q *Query) error {
	key, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if q.KeyColumn == "" {
		q.KeyColumn = key.text
	} else if !strings.EqualFold(q.KeyColumn, key.text) {
		return fmt.Errorf("asaql: GROUP BY key %q does not match selected key %q", key.text, q.KeyColumn)
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	if err := p.expectKeyword("Windows"); err != nil {
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	for {
		nw, err := p.parseWindow()
		if err != nil {
			return err
		}
		q.Windows = append(q.Windows, nw)
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	_, err = p.expect(tokRParen)
	return err
}

// parseWindow handles: Window('name', TumblingWindow(unit, n))
// and Window('name', HoppingWindow(unit, r, s)). The name is optional;
// the unlabeled forms TumblingWindow(...) / HoppingWindow(...) are also
// accepted directly.
func (p *parser) parseWindow() (NamedWindow, error) {
	var nw NamedWindow
	t, err := p.expect(tokIdent)
	if err != nil {
		return nw, err
	}
	kind := t.text
	if strings.EqualFold(kind, "Window") {
		if _, err := p.expect(tokLParen); err != nil {
			return nw, err
		}
		if p.peek().kind == tokString {
			nw.Name = p.advance().text
			if _, err := p.expect(tokComma); err != nil {
				return nw, err
			}
		}
		inner, err := p.expect(tokIdent)
		if err != nil {
			return nw, err
		}
		kind = inner.text
		w, err2 := p.parseWindowCall(kind, t.pos)
		if err2 != nil {
			return nw, err2
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nw, err
		}
		nw.W = w
		if nw.Name == "" {
			nw.Name = w.String()
		}
		return nw, nil
	}
	w, err := p.parseWindowCall(kind, t.pos)
	if err != nil {
		return nw, err
	}
	nw.W = w
	nw.Name = w.String()
	return nw, nil
}

// parseWindowCall parses the argument list of TumblingWindow/HoppingWindow
// after its identifier has been consumed.
func (p *parser) parseWindowCall(kind string, pos int) (window.Window, error) {
	var w window.Window
	tumbling := false
	switch {
	case strings.EqualFold(kind, "TumblingWindow"):
		tumbling = true
	case strings.EqualFold(kind, "HoppingWindow"):
	default:
		return w, fmt.Errorf("asaql: unknown window type %q at offset %d", kind, pos)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return w, err
	}
	unitTok, err := p.expect(tokIdent)
	if err != nil {
		return w, err
	}
	mult, ok := unitTicks[strings.ToLower(unitTok.text)]
	if !ok {
		return w, fmt.Errorf("asaql: unknown time unit %q at offset %d", unitTok.text, unitTok.pos)
	}
	if _, err := p.expect(tokComma); err != nil {
		return w, err
	}
	r, err := p.parseNumber()
	if err != nil {
		return w, err
	}
	s := r
	if !tumbling {
		if _, err := p.expect(tokComma); err != nil {
			return w, err
		}
		if s, err = p.parseNumber(); err != nil {
			return w, err
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return w, err
	}
	w = window.Window{Range: r * mult, Slide: s * mult}
	if err := w.Validate(); err != nil {
		return w, fmt.Errorf("asaql: %w (at offset %d)", err, pos)
	}
	return w, nil
}

func (p *parser) parseNumber() (int64, error) {
	t, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("asaql: invalid positive integer %q at offset %d", t.text, t.pos)
	}
	return v, nil
}

func validate(q *Query) error {
	if q.ValueColumn == "" {
		return fmt.Errorf("asaql: query has no aggregate call")
	}
	if q.KeyColumn == "" {
		return fmt.Errorf("asaql: query has no grouping key")
	}
	if len(q.Windows) == 0 {
		return fmt.Errorf("asaql: query has no windows")
	}
	if _, err := q.Set(); err != nil {
		return err
	}
	if _, err := q.Filter(); err != nil {
		return err
	}
	return nil
}

// String renders the query back in ASA syntax (normalized to tick units).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(q.KeyColumn)
	if q.SelectsWindowID {
		b.WriteString(", System.Window().Id")
	}
	for _, call := range q.Aggregates {
		switch call.Fn {
		case agg.Distinct:
			fmt.Fprintf(&b, ", COUNT(DISTINCT %s)", call.Column)
		case agg.Percentile, agg.TopK:
			fmt.Fprintf(&b, ", %s(%s, %s)", call.Fn, call.Column,
				strconv.FormatFloat(call.Param, 'f', -1, 64))
		default:
			fmt.Fprintf(&b, ", %s(%s)", call.Fn, call.Column)
		}
		if call.Alias != "" {
			fmt.Fprintf(&b, " AS %s", call.Alias)
		}
	}
	fmt.Fprintf(&b, "\nFROM %s", q.Input)
	if q.TimestampBy != "" {
		fmt.Fprintf(&b, " TIMESTAMP BY %s", q.TimestampBy)
	}
	for i, c := range q.Where {
		kw := "\nWHERE"
		if i > 0 {
			kw = " AND"
		}
		// 'f' format: the lexer reads plain decimal numbers, not the
		// exponent notation %v falls back to for large magnitudes.
		fmt.Fprintf(&b, "%s %s %s %s", kw, c.Column, c.Op,
			strconv.FormatFloat(c.Value, 'f', -1, 64))
	}
	fmt.Fprintf(&b, "\nGROUP BY %s, Windows(", q.KeyColumn)
	for i, nw := range q.Windows {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n    ")
		if nw.W.IsTumbling() {
			fmt.Fprintf(&b, "Window('%s', TumblingWindow(tick, %d))", nw.Name, nw.W.Range)
		} else {
			fmt.Fprintf(&b, "Window('%s', HoppingWindow(tick, %d, %d))", nw.Name, nw.W.Range, nw.W.Slide)
		}
	}
	b.WriteString(")")
	return b.String()
}
