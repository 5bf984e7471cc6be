package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"sudaf/internal/catalog"
	"sudaf/internal/errs"
	"sudaf/internal/expr"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// TaskSpec builds a Task once the joined row set's column binder exists.
// The Binder gives both scalar accessors and physical column access, so
// specs can compile vectorized kernels where the shape allows.
type TaskSpec func(b Binder) (Task, error)

// TaskRegistry deduplicates tasks by key: two aggregate calls needing the
// same computation (e.g. the count() of avg and of stddev) run it once.
type TaskRegistry struct {
	keys  map[string]int
	specs []TaskSpec
	names []string
}

// NewTaskRegistry creates an empty registry.
func NewTaskRegistry() *TaskRegistry {
	return &TaskRegistry{keys: map[string]int{}}
}

// Add registers a task spec under a deduplication key and returns its
// task index.
func (r *TaskRegistry) Add(key string, spec TaskSpec) int {
	if i, ok := r.keys[key]; ok {
		return i
	}
	i := len(r.specs)
	r.keys[key] = i
	r.specs = append(r.specs, spec)
	r.names = append(r.names, key)
	return i
}

// Len returns the number of distinct tasks.
func (r *TaskRegistry) Len() int { return len(r.specs) }

// Keys returns the registered task keys in index order.
func (r *TaskRegistry) Keys() []string { return r.names }

// Spec returns the i-th task spec; the batch planner uses it to merge
// per-query registries into one fused-scan union registry.
func (r *TaskRegistry) Spec(i int) TaskSpec { return r.specs[i] }

// Has reports whether a key is already registered.
func (r *TaskRegistry) Has(key string) bool {
	_, ok := r.keys[key]
	return ok
}

// Index returns the task index registered under a key.
func (r *TaskRegistry) Index(key string) (int, bool) {
	i, ok := r.keys[key]
	return i, ok
}

// RunSpecs executes the data plan, builds the registered tasks against
// the joined row set, and aggregates. The context cancels the scan, join
// and accumulate loops cooperatively; a nil ctx means Background.
func (e *Engine) RunSpecs(ctx context.Context, dp *DataPlan, reg *TaskRegistry) (*GroupResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rs, err := dp.buildRowSet(ctx)
	if err != nil {
		return nil, err
	}
	tasks := make([]Task, len(reg.specs))
	for i, spec := range reg.specs {
		t, err := spec(rs)
		if err != nil {
			return nil, err
		}
		tasks[i] = t
	}
	return e.aggregate(ctx, dp, rs, tasks)
}

// Finisher computes one aggregate call's value for group g from the task
// output matrix.
type Finisher func(vals [][]float64, g int) float64

// Result is a finished query result.
type Result struct {
	Table *storage.Table
	// Rows is the number of joined base rows read (0 when fully answered
	// from cache).
	Rows int
	// Groups is the number of groups before LIMIT.
	Groups int
	// NumericFaults counts NaN/±Inf aggregate outputs observed under the
	// permissive numeric policy (0 under strict — the query errors first).
	NumericFaults int
}

// placeholderPrefix names the synthetic variables replacing aggregate
// calls in select expressions.
const placeholderPrefix = "__agg"

// Placeholder names the synthetic variable replacing the i-th aggregate
// call extracted by ExtractAggCalls.
func Placeholder(i int) string { return fmt.Sprintf("%s%d", placeholderPrefix, i) }

// ExtractAggCalls rewrites a select expression, replacing each aggregate
// call (as identified by isAgg) with a placeholder variable, and returns
// the calls in placeholder order.
func ExtractAggCalls(n expr.Node, isAgg func(name string) bool, calls *[]*expr.Call) expr.Node {
	switch t := n.(type) {
	case *expr.Num, *expr.Var:
		return n
	case *expr.Neg:
		return &expr.Neg{X: ExtractAggCalls(t.X, isAgg, calls)}
	case *expr.Bin:
		return &expr.Bin{Op: t.Op,
			L: ExtractAggCalls(t.L, isAgg, calls),
			R: ExtractAggCalls(t.R, isAgg, calls)}
	case *expr.Call:
		if isAgg(t.Name) {
			*calls = append(*calls, t)
			return &expr.Var{Name: Placeholder(len(*calls) - 1)}
		}
		args := make([]expr.Node, len(t.Args))
		for i, a := range t.Args {
			args[i] = ExtractAggCalls(a, isAgg, calls)
		}
		return &expr.Call{Name: t.Name, Args: args}
	}
	return n
}

// NumericPolicy selects how numeric domain faults — NaN or ±Inf emerging
// from a terminating function T or a per-tuple translation F (sqrt of a
// negative partial, 0/0 on an empty group, log of a non-positive value)
// — are reported.
type NumericPolicy int

const (
	// NumericPermissive emits the IEEE result (NaN/±Inf, the SQL-NULL
	// analogue in this engine's float columns) and counts the fault in
	// Result.NumericFaults so it is never silent.
	NumericPermissive NumericPolicy = iota
	// NumericStrict fails the query with an error naming the aggregate
	// and group instead of emitting NaN/±Inf.
	NumericStrict
)

func (p NumericPolicy) String() string {
	if p == NumericStrict {
		return "strict"
	}
	return "permissive"
}

// OutputSpec is a compiled select list for an aggregate query: rewritten
// expressions plus the finishers backing each placeholder.
type OutputSpec struct {
	Items     []sqlparse.SelectItem // exprs with placeholders substituted
	Finishers []Finisher            // one per placeholder, in order
	// Labels names each finisher's aggregate call (for numeric-fault
	// diagnostics); may be shorter than Finishers.
	Labels []string
	// Numeric is the numeric fault policy applied to finisher outputs.
	Numeric NumericPolicy
}

func (out *OutputSpec) label(p int) string {
	if p < len(out.Labels) {
		return out.Labels[p]
	}
	return Placeholder(p)
}

// BuildOutput materializes the final result table of a grouped query:
// the select list projected over the groups (non-placeholder names are
// group-by key columns), then ORDER BY and LIMIT.
func BuildOutput(ctx context.Context, stmt *sqlparse.Stmt, dp *DataPlan, gr *GroupResult, out OutputSpec) (*Result, error) {
	totalGroups := gr.NumGroups
	// When ORDER BY touches only group-key columns and a LIMIT is set,
	// select the surviving groups *before* evaluating finishers — this is
	// what lets expensive terminating functions (e.g. the moment-sketch
	// quantile solver) run only for the 20 output groups of query model 2.
	if reduced, ok := limitByKeys(stmt, gr); ok {
		gr = reduced
	}
	res, faults, err := project(ctx, out, gr.Values, gr.NumGroups, func(name string) *storage.Column {
		for k, kn := range gr.KeyNames {
			if kn == name {
				return gr.KeyColumns[k]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := sortLimit(res, stmt); err != nil {
		return nil, err
	}
	return &Result{Table: res, Rows: gr.Rows, Groups: totalGroups, NumericFaults: faults}, nil
}

// project is the one select-list projection, shared by grouped queries
// (BuildOutput) and windowed emissions (BuildWindowOutput): n output rows,
// placeholder i valued by out.Finishers[i] over vals, and every other
// name resolved by bind to a column holding one value per output row (nil
// if unknown). A bare reference passes its column through with its
// storage type (required for strings); a bare placeholder is its finisher
// column; anything else is compiled once through expr.Compile and
// evaluated per row. Finisher loops poll ctx (terminating functions such
// as the moment-sketch solver can dominate runtime), and NaN/±Inf outputs
// are counted or rejected per out.Numeric.
func project(ctx context.Context, out OutputSpec, vals [][]float64, n int, bind func(name string) *storage.Column) (*storage.Table, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	faults := 0
	// rejected applies the numeric policy to one output value: a NaN/±Inf
	// is counted under the permissive policy and rejected under strict.
	rejected := func(v float64) bool {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			return false
		}
		if out.Numeric == NumericStrict {
			return true
		}
		faults++
		return false
	}
	strictErr := func(what string, v float64, row int) error {
		return fmt.Errorf("%s: %w (%v) in output row %d (strict numeric policy)", what, errs.ErrNumericFault, v, row)
	}
	placeholders := make(map[string][]float64, len(out.Finishers))
	for p, fin := range out.Finishers {
		col := make([]float64, n)
		for g := range col {
			if g%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, 0, err
				}
			}
			col[g] = fin(vals, g)
			if rejected(col[g]) {
				return nil, 0, strictErr("aggregate "+out.label(p), col[g], g)
			}
		}
		placeholders[Placeholder(p)] = col
	}
	bindRow := func(name string) (Accessor, error) {
		if col, ok := placeholders[name]; ok {
			return func(i int32) float64 { return col[i] }, nil
		}
		if c := bind(name); c != nil {
			return func(i int32) float64 { return c.AsFloat(int(i)) }, nil
		}
		return nil, fmt.Errorf("unknown column %q", name)
	}

	res := storage.NewTable("result")
	for pos, item := range out.Items {
		name := item.OutputName(pos)
		var col *storage.Column
		if v, ok := item.Expr.(*expr.Var); ok {
			if ph, ok := placeholders[v.Name]; ok {
				col = storage.NewColumn(name, storage.KindFloat)
				col.F = append(col.F, ph...)
			} else if c := bind(v.Name); c != nil {
				col = c.Renamed(name)
			}
		}
		if col == nil {
			acc, err := CompileExpr(item.Expr, bindRow)
			if err != nil {
				return nil, 0, fmt.Errorf("select item %q: %w", name, err)
			}
			col = storage.NewColumn(name, storage.KindFloat)
			col.F = make([]float64, n)
			for g := range col.F {
				col.F[g] = acc(int32(g))
				if rejected(col.F[g]) {
					return nil, 0, strictErr(fmt.Sprintf("select item %q", name), col.F[g], g)
				}
			}
		}
		if err := res.AddColumn(col); err != nil {
			return nil, 0, err
		}
	}
	return res, faults, nil
}

// sortCol is one ORDER BY term resolved to a column.
type sortCol struct {
	col  *storage.Column
	desc bool
}

// rowLess orders rows a and b of the ORDER BY columns: strings
// lexicographically, ints as int64 (through float64 two keys that differ
// only beyond 2^53 would tie), floats numerically. A NaN compares equal
// to everything, so where NaNs land among other values is unspecified.
func rowLess(cols []sortCol) func(a, b int) bool {
	return func(a, b int) bool {
		for _, sc := range cols {
			var c int
			switch sc.col.Kind {
			case storage.KindString:
				c = strings.Compare(sc.col.StringAt(a), sc.col.StringAt(b))
			case storage.KindInt:
				c = cmp.Compare(sc.col.I[a], sc.col.I[b])
			default: // not cmp.Compare: it would order NaN first
				if va, vb := sc.col.F[a], sc.col.F[b]; va < vb {
					c = -1
				} else if va > vb {
					c = 1
				}
			}
			if sc.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	}
}

// firstK returns the first k of rows [0, n) in stable ascending order
// under less — exactly the prefix sort.SliceStable would produce, ties
// going to the lower row. For k < n it keeps the k best rows seen so far
// in a max-heap, O(n log k); only k ≥ n pays for a full sort.
func firstK(n, k int, less func(a, b int) bool) []int {
	if k >= n {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(i, j int) bool { return less(perm[i], perm[j]) })
		return perm
	}
	if k <= 0 {
		return nil
	}
	// before is the stable order made total: row index breaks ties.
	before := func(a, b int) bool { return less(a, b) || (a < b && !less(b, a)) }
	h := make([]int, k) // max-heap under before: h[0] is the last row kept
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= k {
				return
			}
			if c+1 < k && before(h[c], h[c+1]) {
				c++
			}
			if !before(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := range h {
		h[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for i := k; i < n; i++ {
		if before(i, h[0]) {
			h[0] = i
			siftDown(0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return before(h[i], h[j]) })
	return h
}

// keyOrder resolves ORDER BY to group-key columns when BuildOutput can
// select the LIMIT surviving groups before finishing any: ORDER BY names
// only group-key columns and LIMIT cuts the group count. nil otherwise.
func keyOrder(stmt *sqlparse.Stmt, gr *GroupResult) []sortCol {
	if len(stmt.OrderBy) == 0 || stmt.Limit < 0 || stmt.Limit >= gr.NumGroups {
		return nil
	}
	colIdx := map[string]int{}
	for k, n := range gr.KeyNames {
		colIdx[n] = k
	}
	var specs []sortCol
	for _, o := range stmt.OrderBy {
		k, ok := colIdx[o.Col]
		if !ok {
			return nil
		}
		specs = append(specs, sortCol{gr.KeyColumns[k], o.Desc})
	}
	return specs
}

// LimitsByKeys reports whether BuildOutput finishes only stmt.Limit of
// gr's groups instead of all of them.
func LimitsByKeys(stmt *sqlparse.Stmt, gr *GroupResult) bool { return keyOrder(stmt, gr) != nil }

// limitByKeys pre-selects groups when ORDER BY uses only group-key
// columns and LIMIT is present.
func limitByKeys(stmt *sqlparse.Stmt, gr *GroupResult) (*GroupResult, bool) {
	specs := keyOrder(stmt, gr)
	if specs == nil {
		return nil, false
	}
	sel := firstK(gr.NumGroups, stmt.Limit, rowLess(specs))
	out := &GroupResult{
		NumGroups: len(sel),
		Keys:      make([]GroupKey, len(sel)),
		KeyNames:  gr.KeyNames,
		Rows:      gr.Rows,
	}
	for i, g := range sel {
		out.Keys[i] = gr.Keys[g]
	}
	out.KeyColumns = make([]*storage.Column, len(gr.KeyColumns))
	for k, kc := range gr.KeyColumns {
		out.KeyColumns[k] = takeRows(kc, sel)
	}
	out.Values = make([][]float64, len(gr.Values))
	for t, vals := range gr.Values {
		nv := make([]float64, len(sel))
		for i, g := range sel {
			nv[i] = vals[g]
		}
		out.Values[t] = nv
	}
	return out, true
}

// takeRows copies the given rows of a column, in order, into a new one.
func takeRows(c *storage.Column, rows []int) *storage.Column {
	nc := storage.NewColumn(c.Name, c.Kind)
	for _, r := range rows {
		switch c.Kind {
		case storage.KindFloat:
			nc.AppendFloat(c.F[r])
		case storage.KindInt:
			nc.AppendInt(c.I[r])
		default:
			nc.AppendString(c.StringAt(r))
		}
	}
	return nc
}

// sortLimit applies ORDER BY and LIMIT to a result table in place.
func sortLimit(t *storage.Table, stmt *sqlparse.Stmt) error {
	n := t.NumRows()
	limit := n
	if stmt.Limit >= 0 && stmt.Limit < n {
		limit = stmt.Limit
	}
	if limit == n && len(stmt.OrderBy) == 0 {
		return nil
	}
	var scs []sortCol
	for _, o := range stmt.OrderBy {
		c := t.Col(o.Col)
		if c == nil {
			return fmt.Errorf("ORDER BY column %q not in output", o.Col)
		}
		scs = append(scs, sortCol{c, o.Desc})
	}
	perm := make([]int, limit) // no ORDER BY: the first limit rows
	for i := range perm {
		perm[i] = i
	}
	if len(scs) > 0 {
		perm = firstK(n, limit, rowLess(scs))
	}
	for ci, c := range t.Cols {
		t.Cols[ci] = takeRows(c, perm)
	}
	return nil
}

// RunSimple executes a non-aggregate query: scan/filter/join then
// row-wise projection (used for materializing plain derived tables).
// Projection loops poll ctx cooperatively.
func (e *Engine) RunSimple(ctx context.Context, stmt *sqlparse.Stmt) (*Result, error) {
	return e.RunSimpleIn(ctx, e.Cat, stmt)
}

// RunSimpleIn is RunSimple resolving tables against an explicit catalog
// (a per-query overlay, so concurrent queries materializing subqueries
// under the same alias never see each other's temporaries).
func (e *Engine) RunSimpleIn(ctx context.Context, cat *catalog.Catalog, stmt *sqlparse.Stmt) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dp, err := e.PrepareDataIn(cat, stmt)
	if err != nil {
		return nil, err
	}
	rs, err := dp.buildRowSet(ctx)
	if err != nil {
		return nil, err
	}
	res := storage.NewTable("result")
	for pos, item := range stmt.Select {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		name := item.OutputName(pos)
		// Column passthrough keeps its type.
		if v, ok := item.Expr.(*expr.Var); ok {
			for _, bt := range dp.tables {
				if src := bt.Col(v.Name); src != nil {
					vec := rs.vecs[bt.Name]
					nc := storage.NewColumn(name, src.Kind)
					for i := 0; i < rs.n; i++ {
						r := physRow(vec, i)
						switch src.Kind {
						case storage.KindFloat:
							nc.AppendFloat(src.F[r])
						case storage.KindInt:
							nc.AppendInt(src.I[r])
						default:
							nc.AppendString(src.StringAt(int(r)))
						}
					}
					if err := res.AddColumn(nc); err != nil {
						return nil, err
					}
					break
				}
			}
			if res.Col(name) != nil {
				continue
			}
		}
		acc, err := CompileExpr(item.Expr, rs.Bind)
		if err != nil {
			return nil, err
		}
		nc := storage.NewColumn(name, storage.KindFloat)
		for i := 0; i < rs.n; i++ {
			nc.AppendFloat(acc(int32(i)))
		}
		if err := res.AddColumn(nc); err != nil {
			return nil, err
		}
	}
	if err := sortLimit(res, stmt); err != nil {
		return nil, err
	}
	return &Result{Table: res, Rows: rs.n, Groups: rs.n}, nil
}
