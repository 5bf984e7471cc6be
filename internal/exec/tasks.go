package exec

import (
	"fmt"
	"math"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/storage"
)

// StateTask computes one SUDAF aggregation state with compiled loops:
// the merge operation is monomorphic per AggOp. This is the "rewritten
// using built-in functions" execution path of the paper (queries
// RQ1/RQ2). NewStateTask classifies the state into a batch kernel
// (canonical.SelectKernel) and Accumulate runs the matching fused loop —
// direct column indexing for float columns, gather-then-loop otherwise,
// and a compiled batch filler for generic bases.
type StateTask struct {
	State canonical.State // bound state (base over real columns)
	Lbl   string
	fn    func(float64) float64 // compiled chain (nil for identity)

	plan        canonical.KernelPlan
	col, col2   *storage.Column // fused-kernel inputs
	rows, rows2 []int32         // per-column row indirection vectors (nil = identity)
	// fused: the kernel inputs are float columns behind row vectors, so
	// the fold loop indexes f[rows[i]] itself instead of gathering first.
	fused     bool
	fillerFac VecFillerFactory
}

// NewStateTask compiles a bound state against a row binder. The kernel
// binds the base first, so a base that does not bind is reported before
// a chain that does not compile, in compileStateInput's order.
func NewStateTask(st canonical.State, b Binder) (*StateTask, error) {
	t := &StateTask{State: st, Lbl: st.Key()}
	if err := t.compileKernel(b); err != nil {
		return nil, fmt.Errorf("state %s: %w", st.Key(), err)
	}
	if st.Op != canonical.OpCount {
		var err error
		if t.fn, err = compileChain(st); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// compileStateInput compiles the per-row input of a non-count state: the
// base expression as a row accessor and compileChain's closure. Window
// valuers take both from here, so a per-row window fold sees the values
// the scan kernels accumulate.
func compileStateInput(st canonical.State, b Binder) (in Accessor, fn func(float64) float64, err error) {
	if in, err = CompileExpr(st.Base, b.Bind); err != nil {
		return nil, nil, fmt.Errorf("state %s: %w", st.Key(), err)
	}
	if fn, err = compileChain(st); err != nil {
		return nil, nil, err
	}
	return in, fn, nil
}

// compileChain compiles a state's real-normalized scalar chain as a
// closure, nil for the identity: the chain the kernels apply to a
// generic base.
func compileChain(st canonical.State) (func(float64) float64, error) {
	chain := st.F.NormalizeReal()
	if chain.IsIdentity() {
		return nil, nil
	}
	fn, err := chain.Compile()
	if err != nil {
		return nil, fmt.Errorf("state %s: %w", st.Key(), err)
	}
	return fn, nil
}

// compileKernel binds the state's kernel to its input columns, or, for a
// generic base, compiles its batch filler.
func (t *StateTask) compileKernel(b Binder) (err error) {
	t.plan = t.State.SelectKernel()
	switch t.plan.Class {
	case canonical.KernelCount:
	case canonical.KernelSumCol, canonical.KernelSumPow, canonical.KernelProdCol,
		canonical.KernelMinCol, canonical.KernelMaxCol:
		if t.col, t.rows, err = b.BindColumn(t.plan.Col); err != nil {
			return err
		}
		t.fused = t.col.Kind == storage.KindFloat && t.rows != nil
	case canonical.KernelSumMul:
		if t.col, t.rows, err = b.BindColumn(t.plan.Col); err != nil {
			return err
		}
		if t.col2, t.rows2, err = b.BindColumn(t.plan.Col2); err != nil {
			return err
		}
		t.fused = t.col.Kind == storage.KindFloat && t.col2.Kind == storage.KindFloat && t.rows != nil && t.rows2 != nil
	default: // KernelGeneric
		t.fillerFac, err = CompileVecFiller(t.State.Base, b)
	}
	return err
}

func (t *StateTask) Name() string { return t.Lbl }

// stateScratch is one worker's kernel scratch: gather buffers for
// non-float columns and the compiled batch filler for generic bases.
type stateScratch struct {
	buf  []float64
	buf2 []float64
	fill VecFiller
}

// NewScratch implements Task.
func (t *StateTask) NewScratch() Scratch {
	vs := &stateScratch{}
	switch t.plan.Class {
	case canonical.KernelCount:
		// No input, no scratch.
	case canonical.KernelGeneric:
		vs.buf = make([]float64, BatchSize)
		vs.fill = t.fillerFac()
	case canonical.KernelSumMul:
		if !t.fused {
			vs.buf = gatherBuf(t.col, t.rows)
			vs.buf2 = gatherBuf(t.col2, t.rows2)
		}
	default:
		if !t.fused {
			vs.buf = gatherBuf(t.col, t.rows)
		}
	}
	return vs
}

// gatherBuf allocates the batch buffer colBatch needs for a kernel input,
// nil when it reads the column in place.
func gatherBuf(col *storage.Column, rows []int32) []float64 {
	if readInPlace(col, rows) {
		return nil
	}
	return make([]float64, BatchSize)
}

// readInPlace reports a kernel input whose batches are slices of the
// column itself: float values under an identity row set.
func readInPlace(col *storage.Column, rows []int32) bool {
	return rows == nil && col.Kind == storage.KindFloat
}

// colBatch returns rows lo..hi of a kernel input as float64s: the column's
// own storage for a float column read in place (nil rows), otherwise the
// values gathered into buf.
func colBatch(col *storage.Column, rows []int32, buf []float64, lo, hi int) []float64 {
	if readInPlace(col, rows) {
		return col.F[lo:hi]
	}
	buf = buf[:hi-lo]
	col.GatherFloats(rows, lo, hi, buf)
	return buf
}

// Accumulate implements Task: one loop per kernel class, in two shapes.
// A keyless batch (foldKeyless) runs each loop into a local accumulator
// and stores group 0 once; a keyed one (foldKeyed) indexes
// the partial by slot, whether the index is group ids or the key column.
// Float columns behind a row vector are indexed through it inside the
// loop (fused); identity float columns are read in place; other kinds
// gather into the worker's batch buffer first. A state with one value per
// row (a column, or a generic base evaluated a batch at a time) is folded
// by its ⊕ alone. Every loop folds each group's rows in ascending order,
// so a group's result is its rows' ⊕-fold in row order whichever shape
// and kernel ran it, up to the NaN payload of a sum or product (below).
func (t *StateTask) Accumulate(s Scratch, p Partial, lo, hi int, ix GroupIndex) {
	a := p.(*floatsPartial).arrs[0]
	vs := s.(*stateScratch)
	switch {
	case ix.Keys != nil:
		foldKeyed(t, vs, a, lo, hi, ix.Keys, ix.Base)
	case ix.IDs != nil:
		foldKeyed(t, vs, a, lo, hi, ix.IDs, ix.Base)
	default:
		// A batch whose register fold meets a NaN runs the keyed loop
		// instead. Where two NaNs meet, an add or multiply keeps the
		// payload of whichever operand the compiler made first, and that
		// choice differs between a register accumulator and a partial
		// loaded from memory (and between builds); every other result is
		// commutative to the bit.
		if acc := a[0]; acc == acc {
			if acc = t.foldKeyless(vs, acc, lo, hi); acc == acc {
				a[0] = acc
				return
			}
		}
		foldKeyed(t, vs, a, lo, hi, keylessIDs[:hi-lo], 0)
	}
}

// values is rows [lo, hi) of a state with one value per row: its
// column's, or its generic base evaluated and chained into the worker's
// buffer.
func (t *StateTask) values(vs *stateScratch, lo, hi int) []float64 {
	if t.plan.Class != canonical.KernelGeneric {
		return colBatch(t.col, t.rows, vs.buf, lo, hi)
	}
	buf := vs.buf[:hi-lo]
	vs.fill(lo, hi, buf)
	if fn := t.fn; fn != nil {
		for j := range buf {
			buf[j] = fn(buf[j])
		}
	}
	return buf
}

// foldKeyed folds rows [lo, hi) into a, row lo+j into slot keys[j] − base.
// It is written once for both kinds of index: group ids (K = int32, base
// 0), dictionary codes (int32) and int keys (int64) read in place. Its
// min/max loops store canonical.Min/Max, a select, on every row instead
// of branching on the compare: each morsel restarts every group from
// ±Inf and sees only a few of its rows, so whether a row improves its
// group's extreme is close to a coin flip.
func foldKeyed[K int32 | int64](t *StateTask, vs *stateScratch, a []float64, lo, hi int, keys []K, base int64) {
	switch {
	case t.plan.Class == canonical.KernelCount:
		for _, k := range keys {
			a[int64(k)-base]++
		}
	case t.fused:
		f, rows := t.col.F, t.rows[lo:hi]
		switch t.plan.Class {
		case canonical.KernelSumCol:
			for j, k := range keys {
				a[int64(k)-base] += f[rows[j]]
			}
		case canonical.KernelSumPow:
			switch t.plan.Pow {
			case 2:
				for j, k := range keys {
					v := f[rows[j]]
					a[int64(k)-base] += v * v
				}
			case 3:
				for j, k := range keys {
					v := f[rows[j]]
					a[int64(k)-base] += v * v * v
				}
			default:
				// k = 4 has no expr.ConstPow reduction, so the compiled
				// chain computes Pow(v, 4); x*x*x*x rounds differently.
				pk := float64(t.plan.Pow)
				for j, k := range keys {
					a[int64(k)-base] += math.Pow(f[rows[j]], pk)
				}
			}
		case canonical.KernelSumMul:
			f2, rows2 := t.col2.F, t.rows2[lo:hi]
			for j, k := range keys {
				a[int64(k)-base] += f[rows[j]] * f2[rows2[j]]
			}
		case canonical.KernelProdCol:
			for j, k := range keys {
				a[int64(k)-base] *= f[rows[j]]
			}
		case canonical.KernelMinCol:
			for j, k := range keys {
				g := int64(k) - base
				a[g] = canonical.Min(a[g], f[rows[j]])
			}
		case canonical.KernelMaxCol:
			for j, k := range keys {
				g := int64(k) - base
				a[g] = canonical.Max(a[g], f[rows[j]])
			}
		}
	case t.plan.Class == canonical.KernelSumPow:
		buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
		switch t.plan.Pow {
		case 2:
			for j, k := range keys {
				v := buf[j]
				a[int64(k)-base] += v * v
			}
		case 3:
			for j, k := range keys {
				v := buf[j]
				a[int64(k)-base] += v * v * v
			}
		default:
			pk := float64(t.plan.Pow)
			for j, k := range keys {
				a[int64(k)-base] += math.Pow(buf[j], pk)
			}
		}
	case t.plan.Class == canonical.KernelSumMul:
		buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
		buf2 := colBatch(t.col2, t.rows2, vs.buf2, lo, hi)
		for j, k := range keys {
			a[int64(k)-base] += buf[j] * buf2[j]
		}
	default:
		buf := t.values(vs, lo, hi)
		switch t.State.Op {
		case canonical.OpSum:
			for j, k := range keys {
				a[int64(k)-base] += buf[j]
			}
		case canonical.OpProd:
			for j, k := range keys {
				a[int64(k)-base] *= buf[j]
			}
		case canonical.OpMin:
			for j, k := range keys {
				g := int64(k) - base
				a[g] = canonical.Min(a[g], buf[j])
			}
		case canonical.OpMax:
			for j, k := range keys {
				g := int64(k) - base
				a[g] = canonical.Max(a[g], buf[j])
			}
		}
	}
}

// foldKeyless folds rows [lo, hi) into acc, the one group's state, and
// returns it: each loop's running state stays in a register instead of
// making every row a store and reload of group 0. The loops are
// foldKeyed's, the same operations in the same order, so a result that
// is not NaN is theirs to the bit. A count adds the batch length at
// once, which equals adding 1 that many times while the count stays
// below 2^53. Min and max run canonical.Min/Max in branch form,
// `if v < acc || v != v { acc = v }` (`>` for max), which keeps the same
// bits (TestKeylessMinMaxBranchIsCanonical): one running extreme over a
// whole batch improves rarely, so the branch predicts well, and a select
// would put the compare on the register's loop-carried chain.
func (t *StateTask) foldKeyless(vs *stateScratch, acc float64, lo, hi int) float64 {
	switch {
	case t.plan.Class == canonical.KernelCount:
		acc += float64(hi - lo)
	case t.fused:
		f, rows := t.col.F, t.rows[lo:hi]
		switch t.plan.Class {
		case canonical.KernelSumCol:
			for _, r := range rows {
				acc += f[r]
			}
		case canonical.KernelSumPow:
			switch t.plan.Pow {
			case 2:
				for _, r := range rows {
					v := f[r]
					acc += v * v
				}
			case 3:
				for _, r := range rows {
					v := f[r]
					acc += v * v * v
				}
			default:
				pk := float64(t.plan.Pow)
				for _, r := range rows {
					acc += math.Pow(f[r], pk)
				}
			}
		case canonical.KernelSumMul:
			f2, rows2 := t.col2.F, t.rows2[lo:hi]
			for j, r := range rows {
				acc += f[r] * f2[rows2[j]]
			}
		case canonical.KernelProdCol:
			for _, r := range rows {
				acc *= f[r]
			}
		case canonical.KernelMinCol:
			for _, r := range rows {
				if v := f[r]; v < acc || v != v {
					acc = v
				}
			}
		case canonical.KernelMaxCol:
			for _, r := range rows {
				if v := f[r]; v > acc || v != v {
					acc = v
				}
			}
		}
	case t.plan.Class == canonical.KernelSumPow:
		buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
		switch t.plan.Pow {
		case 2:
			for _, v := range buf {
				acc += v * v
			}
		case 3:
			for _, v := range buf {
				acc += v * v * v
			}
		default:
			pk := float64(t.plan.Pow)
			for _, v := range buf {
				acc += math.Pow(v, pk)
			}
		}
	case t.plan.Class == canonical.KernelSumMul:
		buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
		buf2 := colBatch(t.col2, t.rows2, vs.buf2, lo, hi)[:len(buf)]
		for j, v := range buf {
			acc += v * buf2[j]
		}
	default:
		buf := t.values(vs, lo, hi)
		switch t.State.Op {
		case canonical.OpSum:
			for _, v := range buf {
				acc += v
			}
		case canonical.OpProd:
			for _, v := range buf {
				acc *= v
			}
		case canonical.OpMin:
			for _, v := range buf {
				if v < acc || v != v {
					acc = v
				}
			}
		case canonical.OpMax:
			for _, v := range buf {
				if v > acc || v != v {
					acc = v
				}
			}
		}
	}
	return acc
}

// maxExactFold bounds the magnitude budget of a run-fold: every partial
// sum (or product) the dense path would compute must be an exact
// integer, which holds comfortably below 2^52 (float64 represents all
// integers up to 2^53 exactly; the extra bit is margin for the
// float-arithmetic guard computations themselves).
const maxExactFold = float64(1 << 52)

// ipow computes v^n by binary exponentiation with float64 multiplies.
// Under the fold guards every intermediate is an exact integer, so the
// result equals what n-1 sequential multiplications produce — including
// signed-zero parity, which plain math.Pow does not guarantee bitwise.
func ipow(v float64, n int) float64 {
	r := 1.0
	for n > 0 {
		if n&1 == 1 {
			r *= v
		}
		v *= v
		n >>= 1
	}
	return r
}

// FoldRuns folds the RLE runs of the state's input column as (value,
// count) pairs directly into group 0 of p, in O(runs) instead of O(rows).
// The caller guarantees an identity row set (column row i IS morsel row
// i) and a single group. It is all-or-nothing per morsel: it either folds
// rows [lo, hi) with a result bit-identical to what Accumulate would
// produce and returns true, or leaves p untouched and returns false so
// the caller runs the dense path. The fold only proceeds when that
// identity is provable —
//
//   - count: always (integer increments below 2^53);
//   - min/max: always (runs are bitwise-constant, and canonical.Min/Max
//     keep a's bits when b equals a, so applying each run value once
//     gives the dense fold's bits);
//   - sum/sum-pow: only when every covered value is an exact integer
//     and maxAbs^pow × rows stays under 2^52, making every partial sum
//     on both paths an exact — and therefore association-independent —
//     integer;
//   - prod: only when the running product provably stays an exact
//     integer (constant/0/±1-heavy segments in practice);
//   - everything else (SumMul, Generic): never, dense path.
func (t *StateTask) FoldRuns(p Partial, lo, hi int) bool {
	if hi <= lo {
		return false
	}
	a := p.(*floatsPartial).arrs[0]
	if t.plan.Class == canonical.KernelCount {
		a[0] += float64(hi - lo)
		storage.CountRunFolds(1)
		return true
	}
	switch t.plan.Class {
	case canonical.KernelSumCol, canonical.KernelSumPow, canonical.KernelProdCol,
		canonical.KernelMinCol, canonical.KernelMaxCol:
	default:
		return false
	}
	maxAbs, integral, ok := t.col.RunCoverage(lo, hi)
	if !ok {
		return false
	}
	n := hi - lo
	folds := int64(0)
	switch t.plan.Class {
	case canonical.KernelSumCol:
		if !integral || maxAbs*float64(n) >= maxExactFold {
			return false
		}
		sum := 0.0
		t.col.ForEachRun(lo, hi, func(v float64, c int) {
			sum += v * float64(c)
			folds++
		})
		a[0] += sum
	case canonical.KernelSumPow:
		pw := math.Pow(maxAbs, float64(t.plan.Pow))
		if !integral || pw*float64(n) >= maxExactFold {
			return false
		}
		sum := 0.0
		pow := t.plan.Pow
		t.col.ForEachRun(lo, hi, func(v float64, c int) {
			var pv float64
			switch pow {
			case 2:
				pv = v * v
			case 3:
				pv = v * v * v
			default:
				pv = math.Pow(v, float64(pow)) // matches the dense kernel
			}
			sum += pv * float64(c)
			folds++
		})
		a[0] += sum
	case canonical.KernelProdCol:
		if !integral {
			return false
		}
		// The running product must stay an exact integer on both paths:
		// bound it by the product of per-run |v|^count (math.Pow may
		// under-round by an ulp, hence the 2^51 margin below 2^52).
		bound := 1.0
		exact := true
		t.col.ForEachRun(lo, hi, func(v float64, c int) {
			av := math.Abs(v)
			if av > 1 {
				bound *= math.Pow(av, float64(c))
			}
			if bound >= maxExactFold/2 || math.IsInf(bound, 0) {
				exact = false
			}
		})
		if !exact {
			return false
		}
		prod := 1.0
		t.col.ForEachRun(lo, hi, func(v float64, c int) {
			prod *= ipow(v, c)
			folds++
		})
		a[0] *= prod
	case canonical.KernelMinCol:
		t.col.ForEachRun(lo, hi, func(v float64, c int) {
			a[0] = canonical.Min(a[0], v)
			folds++
		})
	case canonical.KernelMaxCol:
		t.col.ForEachRun(lo, hi, func(v float64, c int) {
			a[0] = canonical.Max(a[0], v)
			folds++
		})
	}
	storage.CountRunFolds(folds)
	return true
}

func (t *StateTask) fill() float64 { return t.State.MergeIdentity() }

func (t *StateTask) NewPartial(n int) Partial { return newFloats(n, t.fill()) }

func (t *StateTask) Grow(p Partial, n int) Partial {
	p.(*floatsPartial).grow(n, t.fill())
	return p
}

func (t *StateTask) Merge(dst, src Partial, remap []int32) {
	t.State.MergeInto(dst.(*floatsPartial).arrs[0], src.(*floatsPartial).arrs[0], remap)
}

func (t *StateTask) Finalize(p Partial, ngroups int) []float64 {
	out := make([]float64, ngroups)
	copy(out, p.(*floatsPartial).arrs[0][:ngroups])
	return out
}

// NaiveUDAFTask models a hardcoded UDAF: the same canonical form, but the
// update function is interpreted per tuple — the argument environment is
// boxed into a map and both the base expressions and the scalar chains
// are walked as trees, mirroring the per-row overhead of PL/pgSQL and of
// Spark's UserDefinedAggregateFunction Row objects. The merge step obeys
// the same IUME contract, so parallel execution stays correct.
type NaiveUDAFTask struct {
	Form *canonical.Form
	Lbl  string
	// args are the compiled accessors for the UDAF's actual arguments
	// (the query engine hands the UDAF its input row, which is fast; the
	// slowness is in the user's update routine).
	args []Accessor
	// updates are the interpreted per-tuple update statements
	// s_i := s_i ⊕ F_i(args); nil entries (min/max) update natively.
	updates []expr.Node
}

// NewNaiveUDAFTask builds the baseline task for a UDAF call.
func NewNaiveUDAFTask(form *canonical.Form, call *expr.Call, bind func(string) (Accessor, error)) (*NaiveUDAFTask, error) {
	if len(call.Args) != len(form.Params) {
		return nil, fmt.Errorf("%s takes %d arguments, got %d", form.Name, len(form.Params), len(call.Args))
	}
	t := &NaiveUDAFTask{Form: form, Lbl: form.Name}
	for _, a := range call.Args {
		in, err := CompileExpr(a, bind)
		if err != nil {
			return nil, err
		}
		t.args = append(t.args, in)
	}
	for i := range form.States {
		t.updates = append(t.updates, form.UpdateExpr(i))
	}
	return t, nil
}

func (t *NaiveUDAFTask) Name() string { return t.Lbl }

// NewScratch implements Task: the batch's group-id vector.
func (t *NaiveUDAFTask) NewScratch() Scratch { return make([]int32, BatchSize) }

func (t *NaiveUDAFTask) fills() []float64 {
	out := make([]float64, len(t.Form.States))
	for i, s := range t.Form.States {
		out[i] = s.MergeIdentity()
	}
	return out
}

func (t *NaiveUDAFTask) NewPartial(n int) Partial { return newFloats(n, t.fills()...) }

func (t *NaiveUDAFTask) Grow(p Partial, n int) Partial {
	p.(*floatsPartial).grow(n, t.fills()...)
	return p
}

func (t *NaiveUDAFTask) Accumulate(s Scratch, p Partial, lo, hi int, ix GroupIndex) {
	gids := ix.slots(s.([]int32), hi-lo)
	fp := p.(*floatsPartial)
	states := t.Form.States
	params := t.Form.Params
	for i := lo; i < hi; i++ {
		// The hardcoded-UDAF cost model: a boxed per-tuple environment
		// holding the arguments and the current state values, with each
		// update statement s_j := s_j ⊕ F_j(args) interpreted as an
		// expression tree — what an interpreted stored-procedure
		// accumulator (PL/pgSQL) or a Row-boxing Spark UDAF does per row.
		env := make(expr.MapEnv, len(params)+len(states))
		for k, name := range params {
			env[name] = t.args[k](int32(i))
		}
		g := gids[i-lo]
		for si := range states {
			env[canonical.StateVar(si)] = fp.arrs[si][g]
		}
		for si, s := range states {
			if t.updates[si] == nil {
				// min/max: native comparison update.
				base, err := expr.Eval(s.Base, env)
				if err != nil {
					base = math.NaN()
				}
				fp.arrs[si][g] = s.Merge(fp.arrs[si][g], base)
				continue
			}
			v, err := expr.Eval(t.updates[si], env)
			if err != nil {
				v = math.NaN()
			}
			fp.arrs[si][g] = v
		}
	}
}

func (t *NaiveUDAFTask) Merge(dst, src Partial, remap []int32) {
	d, s := dst.(*floatsPartial), src.(*floatsPartial)
	for si, st := range t.Form.States {
		st.MergeInto(d.arrs[si], s.arrs[si], remap)
	}
}

func (t *NaiveUDAFTask) Finalize(p Partial, ngroups int) []float64 {
	fp := p.(*floatsPartial)
	out := make([]float64, ngroups)
	vals := make([]float64, len(t.Form.States))
	tfn, err := t.Form.CompileT()
	if err != nil {
		for g := range out {
			out[g] = math.NaN()
		}
		return out
	}
	for g := 0; g < ngroups; g++ {
		for si := range t.Form.States {
			vals[si] = fp.arrs[si][g]
		}
		out[g] = tfn(vals)
	}
	return out
}
