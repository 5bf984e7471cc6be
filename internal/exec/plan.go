package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

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
	// disableVec forces every task onto the tuple-at-a-time Accumulate
	// path even when it implements VectorTask: the reference the
	// batch≡tuple differential tests compare against. Results are
	// identical either way, only throughput differs.
	disableVec atomic.Bool
	// disableFold turns off the direct-over-encoding run-folds (storage
	// engine v2): aggregation then always decodes through the dense
	// path. Results are bit-identical either way — the fold guards
	// guarantee exactness — only throughput differs. The reference of the
	// encoded≡dense differential tests.
	disableFold atomic.Bool
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

// SetVectorKernels toggles the batch aggregation kernels (on by default).
// A reference switch for tests: nothing outside _test.go files calls it
// (ci/check_docs.sh enforces that), and no exported path reaches it from
// core.Session or the sudaf package.
func (e *Engine) SetVectorKernels(on bool) { e.disableVec.Store(!on) }

// SetEncodedFolds toggles aggregation directly over encoded segments
// (on by default). Test-only, like SetVectorKernels.
func (e *Engine) SetEncodedFolds(on bool) { e.disableFold.Store(!on) }

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
// selects every row without materializing a vector. Each block is one
// pass of the compiled predicate into a 0/1 byte per row, compacted into
// row indices without branches.
func selection(ctx context.Context, t *storage.Table, pred sqlparse.Pred) (rowSel, error) {
	if err := faultinject.Hit(faultinject.PointStorageScan); err != nil {
		return rowSel{}, fmt.Errorf("scan %s: %w", t.Name, err)
	}
	n := t.NumRows()
	if pred == nil {
		return rowSel{n: n}, nil
	}
	block := min(n, cancelCheckRows)
	fill, err := compileFilter(t, pred, block)
	if err != nil {
		return rowSel{}, err
	}
	out := make([]int32, 0, n/4+16)
	mask := make([]uint8, block)
	for lo := 0; lo < n; lo += cancelCheckRows {
		if err := ctx.Err(); err != nil {
			return rowSel{}, err
		}
		m := mask[:min(n-lo, cancelCheckRows)]
		fill(m, lo)
		out = slices.Grow(out, len(m))
		idx := out[len(out) : len(out)+len(m)]
		c := 0
		for i, b := range m {
			idx[c] = int32(lo + i)
			c += int(b)
		}
		out = out[:len(out)+c]
	}
	return rowSel{rows: out, n: len(out)}, nil
}

// blockFn is a compiled predicate over one table: it sets m[i] to 1 when
// row lo+i is selected and to 0 otherwise, for a block of at most the
// size it was compiled for.
type blockFn func(m []uint8, lo int)

// compileFilter compiles a predicate into a block evaluator. A
// conjunction's comparisons of one column with literals are intersected
// here into a single span, so `x >= a and x < b` is one pass over x.
// Scratch masks are sized to block and allocated once, at compile time.
func compileFilter(t *storage.Table, pred sqlparse.Pred, block int) (blockFn, error) {
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
		return combine([]blockFn{l, r}, block, true), nil
	case *sqlparse.And, *sqlparse.Cmp:
		var fns []blockFn
		var spans []colSpan
		for _, c := range sqlparse.Conjuncts(p) {
			cmp, ok := c.(*sqlparse.Cmp)
			if !ok {
				f, err := compileFilter(t, c, block)
				if err != nil {
					return nil, err
				}
				fns = append(fns, f)
				continue
			}
			cs, f, err := compileComparison(t, cmp)
			if err != nil {
				return nil, err
			}
			if f != nil {
				fns = append(fns, f)
				continue
			}
			i := slices.IndexFunc(spans, func(s colSpan) bool { return s.col == cs.col && !s.not && !cs.not })
			if i < 0 {
				spans = append(spans, cs)
				continue
			}
			spans[i].lo = max(spans[i].lo, cs.lo)
			spans[i].hi = min(spans[i].hi, cs.hi)
		}
		for _, s := range spans {
			fns = append(fns, s.kernel())
		}
		return combine(fns, block, false), nil
	}
	return nil, fmt.Errorf("unsupported predicate %T", pred)
}

// combine ANDs (or ORs) the masks of fns, evaluating each into one
// scratch mask owned by this node.
func combine(fns []blockFn, block int, or bool) blockFn {
	if len(fns) == 1 {
		return fns[0]
	}
	scratch := make([]uint8, block)
	return func(m []uint8, lo int) {
		fns[0](m, lo)
		s := scratch[:len(m)]
		for _, f := range fns[1:] {
			f(s, lo)
			if or {
				for i := range m {
					m[i] |= s[i]
				}
			} else {
				for i := range m {
					m[i] &= s[i]
				}
			}
		}
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

// compileComparison compiles one comparison: a column against a literal
// to a colSpan, which a conjunction may intersect with others on the same
// column, and a column against a column straight to a kernel.
func compileComparison(t *storage.Table, p *sqlparse.Cmp) (colSpan, blockFn, error) {
	if p.L.IsCol && p.R.IsCol {
		lc, rc := t.Col(p.L.Col), t.Col(p.R.Col)
		if lc == nil || rc == nil {
			return colSpan{}, nil, fmt.Errorf("unknown column in %q", sqlparse.PredString(p))
		}
		f, err := columnsKernel(p, lc, rc)
		return colSpan{}, f, err
	}
	// Normalize to column OP literal.
	cmp := *p
	if !cmp.L.IsCol {
		cmp.L, cmp.R = cmp.R, cmp.L
		cmp.Op = flipOp(cmp.Op)
	}
	if !cmp.L.IsCol {
		return colSpan{}, nil, fmt.Errorf("predicate %q has no column", sqlparse.PredString(p))
	}
	col := t.Col(cmp.L.Col)
	if col == nil {
		return colSpan{}, nil, fmt.Errorf("unknown column %q in table %s", cmp.L.Col, t.Name)
	}
	if cmp.R.IsNum {
		if col.Kind == storage.KindString {
			return colSpan{}, nil, fmt.Errorf("numeric comparison on string column %q", col.Name)
		}
		sp, err := opSpan(cmp.Op, cmp.R.Num)
		return colSpan{col, sp}, nil, err
	}
	// String literal: compare by dictionary code (equality only). A
	// string that never appears has code -1, which no row holds.
	if col.Kind != storage.KindString {
		return colSpan{}, nil, fmt.Errorf("string comparison on non-string column %q", col.Name)
	}
	if cmp.Op != "=" && cmp.Op != "!=" {
		return colSpan{}, nil, fmt.Errorf("string comparison %q only supports = and !=", cmp.Op)
	}
	code := float64(col.Code(cmp.R.Str))
	return colSpan{col, span{code, code, cmp.Op == "!="}}, nil, nil
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

// kernel compiles the span test over the column's values: float columns
// compare as floats (NaN and -0 behave as under `x op v`); int columns and
// string codes test their exact interval with one unsigned compare.
func (cs colSpan) kernel() blockFn {
	flip := b2u(cs.not)
	if cs.col.Kind == storage.KindFloat {
		f, sp := cs.col.F, cs.span
		return func(m []uint8, lo int) {
			x := f[lo : lo+len(m)]
			for i, v := range x {
				m[i] = b2u(sp.lo <= v)&b2u(v <= sp.hi) ^ flip
			}
		}
	}
	ilo, w, ok := intSpan(cs.span)
	switch {
	case !ok:
		return func(m []uint8, _ int) {
			for i := range m {
				m[i] = flip
			}
		}
	case cs.col.Kind == storage.KindInt:
		return rangeKernel(cs.col.I, ilo, w, flip)
	}
	return rangeKernel(cs.col.Codes, ilo, w, flip)
}

// rangeKernel tests lo <= x <= lo+w as uint64(x-lo) <= w. Its loop, like
// cmpKernel's, is a function of its own rather than the closure's body:
// the compiler does not inline b2u into a closure of a generic function
// that is itself inlined, which would cost a call per row.
func rangeKernel[T int32 | int64](vals []T, lo int64, w uint64, flip uint8) blockFn {
	return func(m []uint8, at int) { fillRange(m, vals[at:at+len(m)], lo, w, flip) }
}

func fillRange[T int32 | int64](m []uint8, x []T, lo int64, w uint64, flip uint8) {
	m = m[:len(x)]
	for i, v := range x {
		m[i] = b2u(uint64(int64(v)-lo) <= w) ^ flip
	}
}

// columnsKernel compiles a comparison of two columns of one table.
// Numeric columns compare as float64, like a literal; string columns
// compare by value, through the right column's codes translated into the
// left column's dictionary once (-1 where the left never holds the
// string), and only for = and !=.
func columnsKernel(p *sqlparse.Cmp, lc, rc *storage.Column) (blockFn, error) {
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
		flip := b2u(op == "!=")
		l, r := lc.Codes, rc.Codes
		return func(m []uint8, lo int) {
			l, r := l[lo:lo+len(m)], r[lo:lo+len(m)]
			for i := range m {
				m[i] = b2u(l[i] == trans[r[i]]) ^ flip
			}
		}, nil
	}
	switch op {
	case ">", ">=":
		op, lc, rc = flipOp(op), rc, lc
	case "=", "!=", "<", "<=":
	default:
		return nil, fmt.Errorf("unknown comparison %q", op)
	}
	switch {
	case lc.Kind == storage.KindInt && rc.Kind == storage.KindInt:
		return cmpKernel(op, lc.I, rc.I), nil
	case lc.Kind == storage.KindInt:
		return cmpKernel(op, lc.I, rc.F), nil
	case rc.Kind == storage.KindInt:
		return cmpKernel(op, lc.F, rc.I), nil
	}
	return cmpKernel(op, lc.F, rc.F), nil
}

// cmpKernel compares two numeric columns row by row as float64; op is
// one of =, !=, <, <=.
func cmpKernel[A, B int64 | float64](op string, as []A, bs []B) blockFn {
	return func(m []uint8, lo int) { fillCmp(m, as[lo:lo+len(m)], bs[lo:lo+len(m)], op) }
}

func fillCmp[A, B int64 | float64](m []uint8, a []A, b []B, op string) {
	m, b = m[:len(a)], b[:len(a)]
	switch op {
	case "=":
		for i := range a {
			m[i] = b2u(float64(a[i]) == float64(b[i]))
		}
	case "!=":
		for i := range a {
			m[i] = b2u(float64(a[i]) != float64(b[i]))
		}
	case "<":
		for i := range a {
			m[i] = b2u(float64(a[i]) < float64(b[i]))
		}
	case "<=":
		for i := range a {
			m[i] = b2u(float64(a[i]) <= float64(b[i]))
		}
	}
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag
// set, so the kernels above have no data-dependent branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
