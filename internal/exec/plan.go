package exec

import (
	"context"
	"fmt"
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
// selects every row without materializing a vector.
func selection(ctx context.Context, t *storage.Table, pred sqlparse.Pred) (rowSel, error) {
	if err := faultinject.Hit(faultinject.PointStorageScan); err != nil {
		return rowSel{}, fmt.Errorf("scan %s: %w", t.Name, err)
	}
	n := t.NumRows()
	if pred == nil {
		return rowSel{n: n}, nil
	}
	match, err := compilePred(t, pred)
	if err != nil {
		return rowSel{}, err
	}
	out := make([]int32, 0, n/4+16)
	for lo := 0; lo < n; lo += cancelCheckRows {
		if err := ctx.Err(); err != nil {
			return rowSel{}, err
		}
		hi := lo + cancelCheckRows
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if match(int32(i)) {
				out = append(out, int32(i))
			}
		}
	}
	return rowSel{rows: out, n: len(out)}, nil
}

// compilePred compiles a predicate into a per-row matcher for one table.
func compilePred(t *storage.Table, pred sqlparse.Pred) (func(int32) bool, error) {
	switch p := pred.(type) {
	case *sqlparse.And:
		l, err := compilePred(t, p.L)
		if err != nil {
			return nil, err
		}
		r, err := compilePred(t, p.R)
		if err != nil {
			return nil, err
		}
		return func(i int32) bool { return l(i) && r(i) }, nil
	case *sqlparse.Or:
		l, err := compilePred(t, p.L)
		if err != nil {
			return nil, err
		}
		r, err := compilePred(t, p.R)
		if err != nil {
			return nil, err
		}
		return func(i int32) bool { return l(i) || r(i) }, nil
	case *sqlparse.Cmp:
		return compileCmp(t, p)
	}
	return nil, fmt.Errorf("unsupported predicate %T", pred)
}

func compileCmp(t *storage.Table, p *sqlparse.Cmp) (func(int32) bool, error) {
	// Column vs column (same table).
	if p.L.IsCol && p.R.IsCol {
		lc, rc := t.Col(p.L.Col), t.Col(p.R.Col)
		if lc == nil || rc == nil {
			return nil, fmt.Errorf("unknown column in %q", sqlparse.PredString(p))
		}
		la := func(i int32) float64 { return lc.AsFloat(int(i)) }
		ra := func(i int32) float64 { return rc.AsFloat(int(i)) }
		return cmpFloat(p.Op, la, ra)
	}
	// Normalize to column OP literal.
	cmp := *p
	if !cmp.L.IsCol {
		cmp.L, cmp.R = cmp.R, cmp.L
		cmp.Op = flipOp(cmp.Op)
	}
	if !cmp.L.IsCol {
		return nil, fmt.Errorf("predicate %q has no column", sqlparse.PredString(p))
	}
	col := t.Col(cmp.L.Col)
	if col == nil {
		return nil, fmt.Errorf("unknown column %q in table %s", cmp.L.Col, t.Name)
	}
	if cmp.R.IsNum {
		v := cmp.R.Num
		switch col.Kind {
		case storage.KindFloat:
			f := col.F
			return cmpConst(cmp.Op, func(i int32) float64 { return f[i] }, v)
		case storage.KindInt:
			iv := col.I
			return cmpConst(cmp.Op, func(i int32) float64 { return float64(iv[i]) }, v)
		default:
			return nil, fmt.Errorf("numeric comparison on string column %q", col.Name)
		}
	}
	// String literal: compare by dictionary code (equality only).
	if col.Kind != storage.KindString {
		return nil, fmt.Errorf("string comparison on non-string column %q", col.Name)
	}
	code := col.Code(cmp.R.Str)
	codes := col.Codes
	switch cmp.Op {
	case "=":
		if code < 0 {
			return func(int32) bool { return false }, nil
		}
		return func(i int32) bool { return codes[i] == code }, nil
	case "!=":
		if code < 0 {
			return func(int32) bool { return true }, nil
		}
		return func(i int32) bool { return codes[i] != code }, nil
	}
	return nil, fmt.Errorf("string comparison %q only supports = and !=", cmp.Op)
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

func cmpFloat(op string, l, r func(int32) float64) (func(int32) bool, error) {
	switch op {
	case "=":
		return func(i int32) bool { return l(i) == r(i) }, nil
	case "!=":
		return func(i int32) bool { return l(i) != r(i) }, nil
	case "<":
		return func(i int32) bool { return l(i) < r(i) }, nil
	case "<=":
		return func(i int32) bool { return l(i) <= r(i) }, nil
	case ">":
		return func(i int32) bool { return l(i) > r(i) }, nil
	case ">=":
		return func(i int32) bool { return l(i) >= r(i) }, nil
	}
	return nil, fmt.Errorf("unknown comparison %q", op)
}

func cmpConst(op string, l func(int32) float64, v float64) (func(int32) bool, error) {
	switch op {
	case "=":
		return func(i int32) bool { return l(i) == v }, nil
	case "!=":
		return func(i int32) bool { return l(i) != v }, nil
	case "<":
		return func(i int32) bool { return l(i) < v }, nil
	case "<=":
		return func(i int32) bool { return l(i) <= v }, nil
	case ">":
		return func(i int32) bool { return l(i) > v }, nil
	case ">=":
		return func(i int32) bool { return l(i) >= v }, nil
	}
	return nil, fmt.Errorf("unknown comparison %q", op)
}
