package exec

import (
	"fmt"
	"math"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/storage"
)

// StateTask computes one SUDAF aggregation state with compiled loops:
// base expression and scalar chain are closures, the merge operation is
// monomorphic per AggOp. This is the "rewritten using built-in functions"
// execution path of the paper (queries RQ1/RQ2).
//
// It is also a VectorTask: NewStateTask classifies the state into a batch
// kernel (canonical.SelectKernel) and AccumulateVec runs the matching
// fused loop — direct column indexing for float columns, gather-then-loop
// otherwise, and a compiled batch filler for generic bases. Both paths
// visit rows in the same order per group, so they agree bit for bit.
type StateTask struct {
	State canonical.State // bound state (base over real columns)
	Lbl   string
	in    Accessor              // compiled base expression (nil for count)
	fn    func(float64) float64 // compiled chain (nil for identity)

	// Vectorized execution plan (vecOK false means scalar-only).
	plan        canonical.KernelPlan
	col, col2   *storage.Column // fused-kernel inputs
	rows, rows2 []int32         // per-column row indirection vectors (nil = identity)
	// fused: the kernel inputs are float columns behind row vectors, so
	// the fold loop indexes f[rows[i]] itself instead of gathering first.
	fused     bool
	fillerFac VecFillerFactory
	vecOK     bool
}

// NewStateTask compiles a bound state against a row binder.
func NewStateTask(st canonical.State, b Binder) (*StateTask, error) {
	t := &StateTask{State: st, Lbl: st.Key()}
	if st.Op != canonical.OpCount {
		var err error
		if t.in, t.fn, err = compileStateInput(st, b); err != nil {
			return nil, err
		}
	}
	t.compileKernel(b)
	return t, nil
}

// compileStateInput compiles the per-tuple input of a non-count state:
// the base expression as a row accessor and the real-normalized scalar
// chain as a closure (nil for the identity). State tasks and window
// valuers both take their input from here, so a window fold sees the
// values the scan kernels accumulate.
func compileStateInput(st canonical.State, b Binder) (in Accessor, fn func(float64) float64, err error) {
	if in, err = CompileExpr(st.Base, b.Bind); err != nil {
		return nil, nil, fmt.Errorf("state %s: %w", st.Key(), err)
	}
	if chain := st.F.NormalizeReal(); !chain.IsIdentity() {
		if fn, err = chain.Compile(); err != nil {
			return nil, nil, fmt.Errorf("state %s: %w", st.Key(), err)
		}
	}
	return in, fn, nil
}

// compileKernel resolves the vectorized plan. Failures here are never
// errors: the scalar path always works, so an unbindable column or an
// uncompilable base just leaves vecOK false.
func (t *StateTask) compileKernel(b Binder) {
	t.plan = t.State.SelectKernel()
	switch t.plan.Class {
	case canonical.KernelCount:
		t.vecOK = true
	case canonical.KernelSumCol, canonical.KernelSumPow, canonical.KernelProdCol,
		canonical.KernelMinCol, canonical.KernelMaxCol:
		col, rows, err := b.BindColumn(t.plan.Col)
		if err != nil {
			return
		}
		t.col, t.rows, t.vecOK = col, rows, true
		t.fused = col.Kind == storage.KindFloat && rows != nil
	case canonical.KernelSumMul:
		col, rows, err := b.BindColumn(t.plan.Col)
		if err != nil {
			return
		}
		col2, rows2, err := b.BindColumn(t.plan.Col2)
		if err != nil {
			return
		}
		t.col, t.col2, t.rows, t.rows2, t.vecOK = col, col2, rows, rows2, true
		t.fused = col.Kind == storage.KindFloat && col2.Kind == storage.KindFloat && rows != nil && rows2 != nil
	default: // KernelGeneric
		fac, err := CompileVecFiller(t.State.Base, b)
		if err != nil {
			return
		}
		t.fillerFac = fac
		t.vecOK = true
	}
}

func (t *StateTask) Name() string { return t.Lbl }

// stateVecState is one worker's kernel scratch: gather buffers for
// non-float columns and the compiled batch filler for generic bases.
type stateVecState struct {
	buf  []float64
	buf2 []float64
	fill VecFiller
}

// NewVecState implements VectorTask. Returns nil when no kernel was
// compiled, which routes this task to the scalar Accumulate.
func (t *StateTask) NewVecState() VecState {
	if !t.vecOK {
		return nil
	}
	vs := &stateVecState{}
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

// AccumulateVec implements VectorTask: one loop per kernel class. Float
// columns behind a row vector are indexed through it inside the loop
// (fused); identity float columns are read in place; other kinds gather
// into the worker's batch buffer first. Every loop folds rows in
// ascending order, so per-group accumulation order — and therefore
// floating-point rounding — matches the scalar path exactly.
func (t *StateTask) AccumulateVec(vsi VecState, p Partial, lo, hi int, gids []int32) {
	a := p.(*floatsPartial).arrs[0]
	vs := vsi.(*stateVecState)
	n := hi - lo
	switch t.plan.Class {
	case canonical.KernelCount:
		for _, g := range gids[:n] {
			a[g]++
		}
	case canonical.KernelSumCol:
		if t.fused {
			f, rows := t.col.F, t.rows
			for i := lo; i < hi; i++ {
				a[gids[i-lo]] += f[rows[i]]
			}
		} else {
			buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
			for j, g := range gids[:n] {
				a[g] += buf[j]
			}
		}
	case canonical.KernelSumPow:
		switch t.plan.Pow {
		case 2:
			if t.fused {
				f, rows := t.col.F, t.rows
				for i := lo; i < hi; i++ {
					v := f[rows[i]]
					a[gids[i-lo]] += v * v
				}
			} else {
				buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
				for j, g := range gids[:n] {
					v := buf[j]
					a[g] += v * v
				}
			}
		case 3:
			if t.fused {
				f, rows := t.col.F, t.rows
				for i := lo; i < hi; i++ {
					v := f[rows[i]]
					a[gids[i-lo]] += v * v * v
				}
			} else {
				buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
				for j, g := range gids[:n] {
					v := buf[j]
					a[g] += v * v * v
				}
			}
		default:
			// k = 4 has no expr.ConstPow reduction, so the scalar path
			// computes Pow(v, 4); x*x*x*x rounds differently.
			k := float64(t.plan.Pow)
			if t.fused {
				f, rows := t.col.F, t.rows
				for i := lo; i < hi; i++ {
					a[gids[i-lo]] += math.Pow(f[rows[i]], k)
				}
			} else {
				buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
				for j, g := range gids[:n] {
					a[g] += math.Pow(buf[j], k)
				}
			}
		}
	case canonical.KernelSumMul:
		if t.fused {
			f1, r1 := t.col.F, t.rows
			f2, r2 := t.col2.F, t.rows2
			for i := lo; i < hi; i++ {
				a[gids[i-lo]] += f1[r1[i]] * f2[r2[i]]
			}
		} else {
			buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
			buf2 := colBatch(t.col2, t.rows2, vs.buf2, lo, hi)
			for j, g := range gids[:n] {
				a[g] += buf[j] * buf2[j]
			}
		}
	case canonical.KernelProdCol:
		if t.fused {
			f, rows := t.col.F, t.rows
			for i := lo; i < hi; i++ {
				a[gids[i-lo]] *= f[rows[i]]
			}
		} else {
			buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
			for j, g := range gids[:n] {
				a[g] *= buf[j]
			}
		}
	case canonical.KernelMinCol:
		if t.fused {
			f, rows := t.col.F, t.rows
			for i := lo; i < hi; i++ {
				g := gids[i-lo]
				if v := f[rows[i]]; v < a[g] || v != v {
					a[g] = v
				}
			}
		} else {
			buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
			for j, g := range gids[:n] {
				if v := buf[j]; v < a[g] || v != v {
					a[g] = v
				}
			}
		}
	case canonical.KernelMaxCol:
		if t.fused {
			f, rows := t.col.F, t.rows
			for i := lo; i < hi; i++ {
				g := gids[i-lo]
				if v := f[rows[i]]; v > a[g] || v != v {
					a[g] = v
				}
			}
		} else {
			buf := colBatch(t.col, t.rows, vs.buf, lo, hi)
			for j, g := range gids[:n] {
				if v := buf[j]; v > a[g] || v != v {
					a[g] = v
				}
			}
		}
	default: // KernelGeneric: batch-eval the base, chain, then fold.
		buf := vs.buf[:n]
		vs.fill(lo, hi, buf)
		if fn := t.fn; fn != nil {
			for j := range buf {
				buf[j] = fn(buf[j])
			}
		}
		switch t.State.Op {
		case canonical.OpSum:
			for j, g := range gids[:n] {
				a[g] += buf[j]
			}
		case canonical.OpProd:
			for j, g := range gids[:n] {
				a[g] *= buf[j]
			}
		case canonical.OpMin:
			for j, g := range gids[:n] {
				if v := buf[j]; v < a[g] || v != v {
					a[g] = v
				}
			}
		case canonical.OpMax:
			for j, g := range gids[:n] {
				if v := buf[j]; v > a[g] || v != v {
					a[g] = v
				}
			}
		}
	}
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

// FoldRuns implements RunFoldTask: it folds the RLE runs of the state's
// input column directly into group 0 of p, in O(runs). The caller
// guarantees an identity row set (column row i IS morsel row i) and a
// single group. Exactness contract: the fold only proceeds when its
// result is provably bit-identical to the dense scan —
//
//   - count: always (integer increments below 2^53);
//   - min/max: always (runs are bitwise-constant, so applying each run
//     value once visits the same distinct values in the same order,
//     including NaN poisoning);
//   - sum/sum-pow: only when every covered value is an exact integer
//     and maxAbs^pow × rows stays under 2^52, making every partial sum
//     on both paths an exact — and therefore association-independent —
//     integer;
//   - prod: only when the running product provably stays an exact
//     integer (constant/0/±1-heavy segments in practice);
//   - everything else (SumMul, Generic): never, dense path.
func (t *StateTask) FoldRuns(p Partial, lo, hi int) bool {
	if !t.vecOK || hi <= lo {
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
			if v < a[0] || v != v {
				a[0] = v
			}
			folds++
		})
	case canonical.KernelMaxCol:
		t.col.ForEachRun(lo, hi, func(v float64, c int) {
			if v > a[0] || v != v {
				a[0] = v
			}
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

func (t *StateTask) Accumulate(p Partial, lo, hi int, gids []int32) {
	a := p.(*floatsPartial).arrs[0]
	switch t.State.Op {
	case canonical.OpCount:
		for i := lo; i < hi; i++ {
			a[gids[i-lo]]++
		}
	case canonical.OpSum:
		in, fn := t.in, t.fn
		if fn == nil {
			for i := lo; i < hi; i++ {
				a[gids[i-lo]] += in(int32(i))
			}
		} else {
			for i := lo; i < hi; i++ {
				a[gids[i-lo]] += fn(in(int32(i)))
			}
		}
	case canonical.OpProd:
		in, fn := t.in, t.fn
		if fn == nil {
			for i := lo; i < hi; i++ {
				a[gids[i-lo]] *= in(int32(i))
			}
		} else {
			for i := lo; i < hi; i++ {
				a[gids[i-lo]] *= fn(in(int32(i)))
			}
		}
	case canonical.OpMin:
		in, fn := t.in, t.fn
		for i := lo; i < hi; i++ {
			v := in(int32(i))
			if fn != nil {
				v = fn(v)
			}
			// v != v catches NaN: poison the group like math.Min (and like
			// State.Merge), so results don't depend on partitioning.
			if g := gids[i-lo]; v < a[g] || v != v {
				a[g] = v
			}
		}
	case canonical.OpMax:
		in, fn := t.in, t.fn
		for i := lo; i < hi; i++ {
			v := in(int32(i))
			if fn != nil {
				v = fn(v)
			}
			if g := gids[i-lo]; v > a[g] || v != v {
				a[g] = v
			}
		}
	}
}

func (t *StateTask) Merge(dst, src Partial, remap []int32) {
	d, s := dst.(*floatsPartial).arrs[0], src.(*floatsPartial).arrs[0]
	switch st := t.State; st.Op {
	case canonical.OpProd, canonical.OpMin, canonical.OpMax:
		for g, v := range s {
			d[remap[g]] = st.Merge(d[remap[g]], v)
		}
	default: // Σ and count: State.Merge is a + b, spelled out so the loop inlines
		for g, v := range s {
			d[remap[g]] += v
		}
	}
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

func (t *NaiveUDAFTask) Accumulate(p Partial, lo, hi int, gids []int32) {
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
				fp.arrs[si][g] = s.Update(fp.arrs[si][g], base)
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
		da, sa := d.arrs[si], s.arrs[si]
		for g, v := range sa {
			da[remap[g]] = st.Merge(da[remap[g]], v)
		}
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
