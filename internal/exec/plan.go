package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"sudaf/internal/catalog"
	"sudaf/internal/faultinject"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// Engine executes queries against a catalog. It is safe for concurrent
// use: any number of goroutines may run queries at once, sharing one
// worker-token pool so the morsel scheduler is never oversubscribed (see
// aggregate).
type Engine struct {
	Cat *catalog.Catalog
	// Workers is the parallelism degree: 1 models the single-threaded
	// PostgreSQL setting, runtime.NumCPU() the Spark cluster setting.
	// Under concurrent queries it is the *total* helper budget shared by
	// all of them, not a per-query figure.
	Workers int
	// sem holds Workers-1 helper tokens shared across all concurrent
	// aggregations: each query's calling goroutine always participates
	// as a worker (guaranteeing progress without a token), and extra
	// workers spawn only while tokens are available.
	sem chan struct{}
}

// NewEngine creates an engine; workers < 1 defaults to all CPUs.
func NewEngine(cat *catalog.Catalog, workers int) *Engine {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	return &Engine{Cat: cat, Workers: workers, sem: make(chan struct{}, workers-1)}
}

// joinCond is an equi-join between two table columns.
type joinCond struct {
	lt, rt *storage.Table
	lc, rc *storage.Column
}

// DataPlan is the resolved data part of an aggregate query: base tables,
// pushed-down filters, the equi-join graph, and the grouping columns.
type DataPlan struct {
	eng     *Engine
	tables  []*storage.Table
	filters map[string]sqlparse.Pred // conjunction per table
	joins   []joinCond
	groupBy []planCol

	// Key is the data part's identity, set by Seal. Copy it to keep it:
	// a copy holds no table, a pointer into the plan holds them all.
	Key DataKey
}

// planCol is a resolved column.
type planCol struct {
	table *storage.Table
	col   *storage.Column
}

// GroupByNames returns the group-by column names in order.
func (dp *DataPlan) GroupByNames() []string {
	out := make([]string, len(dp.groupBy))
	for i, g := range dp.groupBy {
		out[i] = g.col.Name
	}
	return out
}

// Tables returns the plan's base table names.
func (dp *DataPlan) Tables() []string {
	out := make([]string, len(dp.tables))
	for i, t := range dp.tables {
		out[i] = t.Name
	}
	return out
}

// PrepareData resolves the FROM/WHERE/GROUP BY part of a statement
// against the engine's session catalog. Subqueries must have been
// materialized by the caller.
func (e *Engine) PrepareData(stmt *sqlparse.Stmt) (*DataPlan, error) {
	return e.PrepareDataIn(e.Cat, stmt)
}

// PrepareDataIn resolves the FROM/WHERE/GROUP BY part of a statement
// against an explicit catalog — typically a per-query overlay holding
// materialized subqueries on top of the session catalog. Subqueries must
// have been materialized by the caller.
//
// It is the composition of the four resolve-phase steps the analyzer
// pipeline exposes individually: NewDataPlan → ResolveFrom →
// ClassifyWhere → ResolveGroupBy → Seal.
func (e *Engine) PrepareDataIn(cat *catalog.Catalog, stmt *sqlparse.Stmt) (*DataPlan, error) {
	dp := e.NewDataPlan()
	if err := dp.ResolveFrom(cat, stmt); err != nil {
		return nil, err
	}
	if err := dp.ClassifyWhere(cat, stmt); err != nil {
		return nil, err
	}
	if err := dp.ResolveGroupBy(cat, stmt); err != nil {
		return nil, err
	}
	dp.Seal()
	return dp, nil
}

// NewDataPlan starts an empty plan for step-wise resolution (the
// analyzer's resolve phase applies the Resolve*/Seal steps as rules).
func (e *Engine) NewDataPlan() *DataPlan {
	return &DataPlan{eng: e, filters: map[string]sqlparse.Pred{}}
}

// ResolveFrom resolves the statement's FROM list to catalog tables.
// Subqueries must have been materialized (and their refs rewritten)
// by the caller beforehand.
func (dp *DataPlan) ResolveFrom(cat *catalog.Catalog, stmt *sqlparse.Stmt) error {
	for _, ref := range stmt.From {
		if ref.Sub != nil {
			return fmt.Errorf("subquery %q must be materialized before PrepareData", ref.RefName())
		}
		t, err := cat.Table(ref.Name)
		if err != nil {
			return err
		}
		dp.tables = append(dp.tables, t)
	}
	return nil
}

// ClassifyWhere splits the WHERE clause's conjuncts into equi-join
// conditions and per-table pushed-down filters. Requires ResolveFrom.
func (dp *DataPlan) ClassifyWhere(cat *catalog.Catalog, stmt *sqlparse.Stmt) error {
	names := dp.Tables()
	for _, conj := range sqlparse.Conjuncts(stmt.Where) {
		if cmp, ok := conj.(*sqlparse.Cmp); ok && cmp.Op == "=" && cmp.L.IsCol && cmp.R.IsCol {
			lt, err := cat.ResolveColumn(cmp.L.Col, names)
			if err != nil {
				return err
			}
			rt, err := cat.ResolveColumn(cmp.R.Col, names)
			if err != nil {
				return err
			}
			if lt != rt {
				dp.joins = append(dp.joins, joinCond{
					lt: lt, rt: rt, lc: lt.Col(cmp.L.Col), rc: rt.Col(cmp.R.Col),
				})
				continue
			}
		}
		// Single-table filter (or same-table column comparison).
		owner, err := predOwner(cat, conj, names)
		if err != nil {
			return err
		}
		if prev, ok := dp.filters[owner.Name]; ok {
			dp.filters[owner.Name] = &sqlparse.And{L: prev, R: conj}
		} else {
			dp.filters[owner.Name] = conj
		}
	}
	return nil
}

// ResolveGroupBy resolves the grouping columns (floats rejected: their
// equality semantics make unusable group keys). Requires ResolveFrom.
func (dp *DataPlan) ResolveGroupBy(cat *catalog.Catalog, stmt *sqlparse.Stmt) error {
	names := dp.Tables()
	for _, g := range stmt.GroupBy {
		t, err := cat.ResolveColumn(g, names)
		if err != nil {
			return err
		}
		col := t.Col(g)
		if col.Kind == storage.KindFloat {
			return fmt.Errorf("GROUP BY on float column %q is not supported", g)
		}
		dp.groupBy = append(dp.groupBy, planCol{table: t, col: col})
	}
	return nil
}

// Seal canonicalizes the resolved plan into its data key; the plan is
// complete after this step.
func (dp *DataPlan) Seal() {
	tables := make([]TableVersion, len(dp.tables))
	for i, t := range dp.tables {
		tables[i] = TableVersion{Name: t.Name, Epoch: t.Epoch}
	}
	joins := make([]JoinPair, len(dp.joins))
	for i, j := range dp.joins {
		joins[i] = JoinPair{L: ColumnRef{j.lt.Name, j.lc.Name}, R: ColumnRef{j.rt.Name, j.rc.Name}}
	}
	var filters []Filter
	for t, p := range dp.filters {
		conjs := sqlparse.Conjuncts(p)
		filters = slices.Grow(filters, len(conjs))
		for _, c := range conjs {
			filters = append(filters, Filter{Table: t, Pred: c, Text: sqlparse.PredString(c)})
		}
	}
	dp.Key = newDataKey(tables, joins, filters, dp.GroupByNames())
}

// predOwner finds the single table all columns of a predicate belong to.
func predOwner(cat *catalog.Catalog, p sqlparse.Pred, names []string) (*storage.Table, error) {
	cols := map[string]bool{}
	sqlparse.PredColumns(p, cols)
	if len(cols) == 0 {
		return nil, fmt.Errorf("constant predicate %q not supported", sqlparse.PredString(p))
	}
	var owner *storage.Table
	for c := range cols {
		t, err := cat.ResolveColumn(c, names)
		if err != nil {
			return nil, err
		}
		if owner == nil {
			owner = t
		} else if owner != t {
			return nil, fmt.Errorf("cross-table predicate %q is not an equi-join", sqlparse.PredString(p))
		}
	}
	return owner, nil
}

// ---- selection (filter evaluation) ----

// cancelCheckRows is the cooperative-cancellation granularity of the
// scan, probe and accumulate loops: ctx.Err() is polled every block.
const cancelCheckRows = 8192

// selection evaluates a table's pushed-down filter to its selected rows,
// polling ctx between blocks so runaway scans can be cancelled. No filter
// selects every row without materializing a vector. Each block's selected
// row ids are appended to the output by the compiled filter itself.
func selection(ctx context.Context, t *storage.Table, pred sqlparse.Pred) (rowSel, error) {
	if err := faultinject.Hit(faultinject.PointStorageScan); err != nil {
		return rowSel{}, fmt.Errorf("scan %s: %w", t.Name, err)
	}
	n := t.NumRows()
	if pred == nil {
		return rowSel{n: n}, nil
	}
	f, err := compileFilter(t, pred, min(n, cancelCheckRows))
	if err != nil {
		return rowSel{}, err
	}
	out := make([]int32, 0, n/4+16)
	for lo := 0; lo < n; lo += cancelCheckRows {
		if err := ctx.Err(); err != nil {
			return rowSel{}, err
		}
		hi := min(n, lo+cancelCheckRows)
		out = f.gen(slices.Grow(out, hi-lo), lo, hi)
	}
	return rowSel{rows: out, n: len(out)}, nil
}

// filter is a compiled predicate over one table, evaluated as ascending
// row ids one block at a time.
type filter interface {
	// gen appends the ids of the selected rows of [lo, hi), a range of at
	// most one block, to dst in order; dst has room for hi−lo more.
	gen(dst []int32, lo, hi int) []int32
	// refine keeps the selected ids of ids, at most one block's, in order
	// and in place.
	refine(ids []int32) []int32
}

// compileFilter compiles a predicate into a filter. A conjunction
// generates ids from its first span (see conjunctSpans) and refines them
// with the other conjuncts; a disjunction merges its sides' ids. Scratch
// is sized to block and allocated once, at compile time.
func compileFilter(t *storage.Table, pred sqlparse.Pred, block int) (filter, error) {
	switch p := pred.(type) {
	case *sqlparse.Or:
		l, err := compileFilter(t, p.L, block)
		if err != nil {
			return nil, err
		}
		r, err := compileFilter(t, p.R, block)
		if err != nil {
			return nil, err
		}
		return &orFilter{l: l, r: r, ids: make([]int32, 0, block), m: make([]uint8, block)}, nil
	case *sqlparse.And, *sqlparse.Cmp:
		spans, rest, err := conjunctSpans(t, sqlparse.Conjuncts(p))
		if err != nil {
			return nil, err
		}
		var fs andFilter
		for _, s := range spans {
			fs = append(fs, s.filter())
		}
		for _, c := range rest {
			var f filter
			if cmp, ok := c.(*sqlparse.Cmp); ok {
				f, err = columnsFilter(t, cmp)
			} else {
				f, err = compileFilter(t, c, block)
			}
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		if len(fs) == 1 {
			return fs[0], nil
		}
		return fs, nil
	}
	return nil, fmt.Errorf("unsupported predicate %T", pred)
}

// andFilter generates ids from its first conjunct and refines them in
// place with the rest.
type andFilter []filter

func (fs andFilter) gen(dst []int32, lo, hi int) []int32 {
	n := len(dst)
	dst = fs[0].gen(dst, lo, hi)
	return dst[:n+len(fs[1:].refine(dst[n:]))]
}

func (fs andFilter) refine(ids []int32) []int32 {
	for _, f := range fs {
		ids = f.refine(ids)
	}
	return ids
}

// orFilter merges the ids its two sides select. Each side writes into a
// block-sized scratch of the node's own, and the node marks the ids in a
// block-local byte map, which it reads back in row order: a merge of two
// id lists would carry a load-to-load dependency from one id to the next.
type orFilter struct {
	l, r filter
	ids  []int32
	m    []uint8
}

func (o *orFilter) gen(dst []int32, lo, hi int) []int32 {
	m := o.m[:hi-lo]
	clear(m)
	o.mark(m, o.l.gen(o.ids[:0], lo, hi), lo)
	o.mark(m, o.r.gen(o.ids[:0], lo, hi), lo)
	idx := dst[len(dst) : len(dst)+len(m)]
	c := 0
	for i, b := range m {
		idx[c] = int32(lo + i)
		c += int(b)
	}
	return dst[:len(dst)+c]
}

func (o *orFilter) refine(ids []int32) []int32 {
	if len(ids) == 0 {
		return ids
	}
	lo := int(ids[0])
	m := o.m[:int(ids[len(ids)-1])+1-lo]
	clear(m)
	o.mark(m, o.l.refine(append(o.ids[:0], ids...)), lo)
	o.mark(m, o.r.refine(append(o.ids[:0], ids...)), lo)
	c := 0
	for _, id := range ids {
		ids[c] = id
		c += int(m[int(id)-lo])
	}
	return ids[:c]
}

// mark sets m[id−lo] for each id.
func (o *orFilter) mark(m []uint8, ids []int32, lo int) {
	for _, id := range ids {
		m[int(id)-lo] = 1
	}
}

// span is the set of values x with lo <= x <= hi under float64
// comparison — or, when not is set, its complement. NaN lies outside
// every span; an empty span has lo > hi.
type span struct {
	lo, hi float64
	not    bool
}

// colSpan is a comparison of one column with a literal: the rows whose
// value lies in the span.
type colSpan struct {
	col *storage.Column
	span
}

// conjunctSpans maps a conjunction's comparisons of a column with a
// literal to spans, intersecting those on one column, so `x >= a and
// x < b` is one pass over x and contradictory bounds are one empty span.
// A `!=` span is a complement, so it is kept apart. The other conjuncts
// (column against column, disjunctions) are returned in rest, in order.
func conjunctSpans(t *storage.Table, conjs []sqlparse.Pred) (spans []colSpan, rest []sqlparse.Pred, err error) {
	for _, c := range conjs {
		cmp, ok := c.(*sqlparse.Cmp)
		if !ok || cmp.L.IsCol && cmp.R.IsCol {
			rest = append(rest, c)
			continue
		}
		cs, err := literalSpan(t, cmp)
		if err != nil {
			return nil, nil, err
		}
		i := slices.IndexFunc(spans, func(s colSpan) bool { return s.col == cs.col && !s.not && !cs.not })
		if i < 0 {
			spans = append(spans, cs)
			continue
		}
		spans[i].lo = max(spans[i].lo, cs.lo)
		spans[i].hi = min(spans[i].hi, cs.hi)
	}
	return spans, rest, nil
}

// literalSpan compiles a comparison of a column with a literal to a
// colSpan.
func literalSpan(t *storage.Table, p *sqlparse.Cmp) (colSpan, error) {
	// Normalize to column OP literal.
	cmp := *p
	if !cmp.L.IsCol {
		cmp.L, cmp.R = cmp.R, cmp.L
		cmp.Op = flipOp(cmp.Op)
	}
	if !cmp.L.IsCol {
		return colSpan{}, fmt.Errorf("predicate %q has no column", sqlparse.PredString(p))
	}
	col := t.Col(cmp.L.Col)
	if col == nil {
		return colSpan{}, fmt.Errorf("unknown column %q in table %s", cmp.L.Col, t.Name)
	}
	if cmp.R.IsNum {
		if col.Kind == storage.KindString {
			return colSpan{}, fmt.Errorf("numeric comparison on string column %q", col.Name)
		}
		sp, err := opSpan(cmp.Op, cmp.R.Num)
		return colSpan{col, sp}, err
	}
	// String literal: compare by dictionary code (equality only). A
	// string that never appears has code -1, which no row holds.
	if col.Kind != storage.KindString {
		return colSpan{}, fmt.Errorf("string comparison on non-string column %q", col.Name)
	}
	if cmp.Op != "=" && cmp.Op != "!=" {
		return colSpan{}, fmt.Errorf("string comparison %q only supports = and !=", cmp.Op)
	}
	code := float64(col.Code(cmp.R.Str))
	return colSpan{col, span{code, code, cmp.Op == "!="}}, nil
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

// opSpan returns the values x with `x op v` as a span. Nextafter turns a
// strict bound into an inclusive one.
func opSpan(op string, v float64) (span, error) {
	inf := math.Inf(1)
	var sp span
	switch op {
	case "=", "!=":
		sp = span{v, v, op == "!="}
	case "<":
		sp = span{-inf, math.Nextafter(v, -inf), false}
	case "<=":
		sp = span{-inf, v, false}
	case ">":
		sp = span{math.Nextafter(v, inf), inf, false}
	case ">=":
		sp = span{v, inf, false}
	default:
		return span{}, fmt.Errorf("unknown comparison %q", op)
	}
	if math.IsNaN(v) || op == "<" && v == -inf || op == ">" && v == inf {
		// NaN compares false with everything (true under !=), and
		// nothing lies beyond ±Inf: an empty span.
		sp = span{inf, -inf, sp.not}
	}
	return sp, nil
}

// intSpan returns the exact int64 interval [lo, lo+w] of the values x
// with float64(x) in the span's [lo, hi]; ok is false when none is.
// int64 → float64 conversion is monotone, so each bound is where a
// monotone predicate first holds, found by bisection over all of int64:
// the interval selects exactly the rows `float64(x) op v` does, ±2^53,
// MinInt64/MaxInt64 and fractional or infinite literals included.
func intSpan(sp span) (lo int64, w uint64, ok bool) {
	lo, ok = firstInt(func(x int64) bool { return float64(x) >= sp.lo })
	end, past := firstInt(func(x int64) bool { return float64(x) > sp.hi })
	if !ok || past && end <= lo {
		return 0, 0, false
	}
	hi := int64(math.MaxInt64)
	if past {
		hi = end - 1
	}
	return lo, uint64(hi) - uint64(lo), true
}

// firstInt returns the least x with p(x), for p false-then-true over
// int64; ok is false when p never holds.
func firstInt(p func(int64) bool) (int64, bool) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if !p(hi) {
		return 0, false
	}
	for lo < hi {
		mid := lo + int64((uint64(hi)-uint64(lo))/2)
		if p(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// filter compiles the span test over the column's values: float columns
// compare as floats (NaN and -0 behave as under `x op v`); int columns and
// string codes test their exact interval with one unsigned compare. The
// complement of an interval of int64 is, modulo 2^64, the interval that
// starts past its end and wraps round to its start, so `!=` is an
// interval too.
func (cs colSpan) filter() filter {
	if cs.col.Kind == storage.KindFloat {
		return &floatSpan{x: cs.col.F, span: cs.span}
	}
	base, w, ok := intSpan(cs.span)
	switch {
	case !ok:
		return allRows(cs.not)
	case cs.not && w == math.MaxUint64:
		return allRows(false)
	case cs.not:
		base, w = base+int64(w)+1, ^w-1
	}
	if cs.col.Kind == storage.KindInt {
		return &intRange[int64]{x: cs.col.I, base: base, w: w}
	}
	return &intRange[int32]{x: cs.col.Codes, base: base, w: w}
}

// A span leaf picks its block kernel from the share of rows its previous
// block kept; the first block counts as dense. Below 1/sparseBelow the
// skip kernel tests four rows at once and stores only around a hit. At or
// above it the branch-free kernel stores every row's id and advances the
// cursor by the test, which costs the same at any selectivity; the skip
// kernel's mispredicted hits cost more than that from between 2 and 3 %
// of rows kept on, so 1/64 (1.6 %) stays below the crossing. DESIGN.md §8
// has the sweep.
const sparseBelow = 64

func sparse(kept, rows int) bool { return kept*sparseBelow < rows }

// allRows selects every row (true) or none.
type allRows bool

func (a allRows) gen(dst []int32, lo, hi int) []int32 {
	if !a {
		return dst
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

func (a allRows) refine(ids []int32) []int32 {
	if a {
		return ids
	}
	return ids[:0]
}

// intRange selects the rows whose value x has uint64(x − base) <= w.
type intRange[T int32 | int64] struct {
	x      []T
	base   int64
	w      uint64
	sparse bool
}

func (r *intRange[T]) gen(dst []int32, lo, hi int) []int32 {
	n := len(dst)
	if r.sparse {
		dst = skipRange(dst, r.x[lo:hi], lo, r.base, r.w)
	} else {
		dst = storeRange(dst, r.x[lo:hi], lo, r.base, r.w)
	}
	r.sparse = sparse(len(dst)-n, hi-lo)
	return dst
}

func (r *intRange[T]) refine(ids []int32) []int32 {
	c := 0
	for _, id := range ids {
		ids[c] = id
		c += int(b2u(uint64(int64(r.x[id])-r.base) <= r.w))
	}
	return ids[:c]
}

// The kernels below are kept out of line (go:noinline) where their loop
// would otherwise be inlined into a caller whose other live values push
// the loop's own out of registers.

// storeRange appends at+i for each x[i] in the range, without a branch:
// every row stores its id, and only a selected one advances the cursor.
//
//go:noinline
func storeRange[T int32 | int64](dst []int32, x []T, at int, base int64, w uint64) []int32 {
	idx := dst[len(dst) : len(dst)+len(x)]
	c := 0
	for i, v := range x {
		idx[c] = int32(at + i)
		c += int(b2u(uint64(int64(v)-base) <= w))
	}
	return dst[:len(dst)+c]
}

// skipRange appends what storeRange does, storing only in the groups of
// four rows that nextHit finds to hold a row in the range. It writes a
// hit group's four stores itself: a call per hit costs up to a quarter
// more at 0.2 % of rows kept.
func skipRange[T int32 | int64](dst []int32, x []T, at int, base int64, w uint64) []int32 {
	n := len(x) &^ 3
	for i := nextHit(x[:n], 0, base, w); i < n; i = nextHit(x[:n], i+4, base, w) {
		g, c := (*[4]T)(x[i:]), len(dst)
		dst = dst[:c+4]
		id := int32(at + i)
		dst[c] = id
		c += int(b2u(uint64(int64(g[0])-base) <= w))
		dst[c] = id + 1
		c += int(b2u(uint64(int64(g[1])-base) <= w))
		dst[c] = id + 2
		c += int(b2u(uint64(int64(g[2])-base) <= w))
		dst[c] = id + 3
		c += int(b2u(uint64(int64(g[3])-base) <= w))
		dst = dst[:c]
	}
	return storeRange(dst, x[n:], at+n, base, w)
}

// nextHit returns the first i from from on, in steps of four, whose
// group x[i:i+4] has a row in the range, or len(x). One unsigned min
// tests the group.
//
//go:noinline
func nextHit[T int32 | int64](x []T, from int, base int64, w uint64) int {
	for g := x[from:]; len(g) >= 4; g = g[4:] {
		if min(uint64(int64(g[0])-base), uint64(int64(g[1])-base), uint64(int64(g[2])-base), uint64(int64(g[3])-base)) <= w {
			return len(x) - len(g)
		}
	}
	return len(x)
}

// floatSpan selects the rows whose value lies in the span, under float64
// comparison.
type floatSpan struct {
	x []float64
	span
	sparse bool
}

func (f *floatSpan) gen(dst []int32, lo, hi int) []int32 {
	n := len(dst)
	if f.sparse {
		dst = skipSpan(dst, f.x[lo:hi], lo, f.span)
	} else {
		dst = storeSpan(dst, f.x[lo:hi], lo, f.span)
	}
	f.sparse = sparse(len(dst)-n, hi-lo)
	return dst
}

func (f *floatSpan) refine(ids []int32) []int32 {
	c := 0
	for _, id := range ids {
		ids[c] = id
		c += int(f.in(f.x[id]))
	}
	return ids[:c]
}

// in is 1 when v lies in the span and 0 otherwise.
func (sp *span) in(v float64) uint8 { return b2u(sp.lo <= v)&b2u(v <= sp.hi) ^ b2u(sp.not) }

// storeSpan is storeRange over floats.
//
//go:noinline
func storeSpan(dst []int32, x []float64, at int, sp span) []int32 {
	idx := dst[len(dst) : len(dst)+len(x)]
	c := 0
	for i, v := range x {
		idx[c] = int32(at + i)
		c += int(sp.in(v))
	}
	return dst[:len(dst)+c]
}

// skipSpan is skipRange over floats.
func skipSpan(dst []int32, x []float64, at int, sp span) []int32 {
	n := len(x) &^ 3
	for i := nextSpanHit(x[:n], 0, sp); i < n; i = nextSpanHit(x[:n], i+4, sp) {
		dst = storeSpan(dst, x[i:i+4], at+i, sp)
	}
	return storeSpan(dst, x[n:], at+n, sp)
}

// nextSpanHit is nextHit over floats: a group is tested by the OR of its
// four rows' span tests.
//
//go:noinline
func nextSpanHit(x []float64, from int, sp span) int {
	for g := x[from:]; len(g) >= 4; g = g[4:] {
		if sp.in(g[0])|sp.in(g[1])|sp.in(g[2])|sp.in(g[3]) != 0 {
			return len(x) - len(g)
		}
	}
	return len(x)
}

// refineByAll generates a block's ids as all of them, refined by f: the
// generator of a filter with no cheaper way to list its rows.
func refineByAll(f filter, dst []int32, lo, hi int) []int32 {
	n := len(dst)
	dst = allRows(true).gen(dst, lo, hi)
	return dst[:n+len(f.refine(dst[n:]))]
}

// columnsFilter compiles a comparison of two columns of one table.
// Numeric columns compare as float64, like a literal; string columns
// compare by value, through the right column's codes translated into the
// left column's dictionary once (-1 where the left never holds the
// string), and only for = and !=.
func columnsFilter(t *storage.Table, p *sqlparse.Cmp) (filter, error) {
	lc, rc := t.Col(p.L.Col), t.Col(p.R.Col)
	if lc == nil || rc == nil {
		return nil, fmt.Errorf("unknown column in %q", sqlparse.PredString(p))
	}
	op := p.Op
	if ls, rs := lc.Kind == storage.KindString, rc.Kind == storage.KindString; ls || rs {
		switch {
		case ls != rs:
			return nil, fmt.Errorf("comparison of a string with a numeric column in %q", sqlparse.PredString(p))
		case op != "=" && op != "!=":
			return nil, fmt.Errorf("string comparison %q only supports = and !=", op)
		}
		trans := make([]int32, rc.DictSize())
		for c := range trans {
			trans[c] = lc.Code(rc.DictString(int32(c)))
		}
		return &codesCmp{l: lc.Codes, r: rc.Codes, trans: trans, flip: b2u(op == "!=")}, nil
	}
	var test numTest
	switch op {
	case "=", "!=":
		test = numTest{eq: 1, flip: b2u(op == "!=")}
	case "<", ">":
		test = numTest{lt: 1}
	case "<=", ">=":
		test = numTest{lt: 1, eq: 1}
	default:
		return nil, fmt.Errorf("unknown comparison %q", op)
	}
	if op == ">" || op == ">=" {
		lc, rc = rc, lc
	}
	switch {
	case lc.Kind == storage.KindInt && rc.Kind == storage.KindInt:
		return &numCmp[int64, int64]{test, lc.I, rc.I}, nil
	case lc.Kind == storage.KindInt:
		return &numCmp[int64, float64]{test, lc.I, rc.F}, nil
	case rc.Kind == storage.KindInt:
		return &numCmp[float64, int64]{test, lc.F, rc.I}, nil
	}
	return &numCmp[float64, float64]{test, lc.F, rc.F}, nil
}

// codesCmp compares two string columns' values through their codes.
type codesCmp struct {
	l, r, trans []int32
	flip        uint8
}

func (s *codesCmp) gen(dst []int32, lo, hi int) []int32 { return refineByAll(s, dst, lo, hi) }

func (s *codesCmp) refine(ids []int32) []int32 {
	c := 0
	for _, id := range ids {
		ids[c] = id
		c += int(b2u(s.l[id] == s.trans[s.r[id]]) ^ s.flip)
	}
	return ids[:c]
}

// numTest is a comparison of two float64s as flags: x op y is
// (x < y)&lt | (x == y)&eq, flipped for !=. NaN makes both compares
// false, so it fails =, < and <= and passes !=, as in Go.
type numTest struct{ lt, eq, flip uint8 }

// numCmp compares two numeric columns row by row as float64.
type numCmp[A, B int64 | float64] struct {
	numTest
	a []A
	b []B
}

func (m *numCmp[A, B]) gen(dst []int32, lo, hi int) []int32 { return refineByAll(m, dst, lo, hi) }

func (m *numCmp[A, B]) refine(ids []int32) []int32 {
	c := 0
	for _, id := range ids {
		x, y := float64(m.a[id]), float64(m.b[id])
		ids[c] = id
		c += int(b2u(x < y)&m.lt | b2u(x == y)&m.eq ^ m.flip)
	}
	return ids[:c]
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag
// set, so the kernels above have no data-dependent branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
