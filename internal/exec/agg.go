package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sudaf/internal/faultinject"
	"sudaf/internal/storage"
)

// GroupKey is a composite group-by key (unused trailing slots are zero).
// Group-by columns are int64 or dictionary codes, never floats.
type GroupKey = [2]int64

// Partial is a task's partition-local accumulation state: one or more
// per-group arrays. Reset empties it to zero groups, keeping its buffers,
// so the engine can reuse one partial for morsel after morsel; the task's
// Grow then re-extends it from its identity.
type Partial interface{ Reset() }

// Task is an aggregate computation folded over the joined rows. The
// engine drives it through the IUME contract: NewPartial/Accumulate per
// partition, Merge across partitions, Finalize per group.
type Task interface {
	// Name identifies the task in results.
	Name() string
	// NewPartial allocates accumulation state for ngroups groups.
	NewPartial(ngroups int) Partial
	// Grow extends a partial to ngroups groups.
	Grow(p Partial, ngroups int) Partial
	// Accumulate folds rows [lo, hi) with group assignments gids
	// (gids[i-lo] is the group of row i).
	Accumulate(p Partial, lo, hi int, gids []int32)
	// Merge folds src group g_src into dst group remap[g_src].
	Merge(dst, src Partial, remap []int32)
	// Finalize extracts the per-group result values.
	Finalize(p Partial, ngroups int) []float64
}

// VecState is a worker-private scratch area for a vectorized task: batch
// buffers and compiled fillers that must not be shared between goroutines.
// It carries no accumulation state — all per-group state stays in the
// Partial, so results are independent of which worker ran which morsel.
type VecState interface{}

// VectorTask is the optional batch-kernel extension of Task. A task that
// implements it is driven one BatchSize chunk at a time through
// AccumulateVec; tasks that don't (or whose NewVecState returns nil — the
// shape or bindings didn't admit a kernel) fall back to the scalar
// Accumulate. AccumulateVec must compute exactly what Accumulate computes,
// in the same row order per group, so the two paths agree bit for bit.
type VectorTask interface {
	Task
	// NewVecState allocates one worker's scratch, or nil to decline
	// vectorized execution for this query.
	NewVecState() VecState
	// AccumulateVec folds rows [lo, hi) (hi-lo ≤ BatchSize) with group
	// assignments gids, using vs as scratch.
	AccumulateVec(vs VecState, p Partial, lo, hi int, gids []int32)
}

// RunFoldTask is the optional direct-over-encoding extension of
// VectorTask: a task that can fold the RLE runs of its input column as
// (value, count) pairs in O(runs) instead of O(rows). FoldRuns is
// all-or-nothing per morsel and must be *exact*: it either folds rows
// [lo, hi) into group 0 of p with a result bit-identical to what
// Accumulate would produce (returning true), or leaves p completely
// untouched and returns false so the caller runs the dense path. It is
// only invoked on identity row sets (row i of the morsel IS row i of
// the column) for keyless aggregates, where every row belongs to the
// single group 0.
type RunFoldTask interface {
	VectorTask
	FoldRuns(p Partial, lo, hi int) bool
}

// GroupResult is the output of aggregation: group keys plus one value
// column per task. KeyColumns are materialized storage columns aligned
// with Keys, so results can round-trip through the cache without
// referencing engine internals.
type GroupResult struct {
	NumGroups  int
	Keys       []GroupKey
	KeyNames   []string
	KeyColumns []*storage.Column
	Values     [][]float64 // Values[taskIdx][groupID]
	// Rows is the number of joined base rows aggregated (observability).
	Rows int
	// FilterRows is the number of base rows the pushed-down filters
	// evaluated, and FilterTime the time that took (observability).
	FilterRows int
	FilterTime time.Duration
	// Kernels names the tasks that ran through compiled batch kernels
	// (per-query observability; empty when everything ran tuple-at-a-time).
	Kernels []string
}

// materializeKeys decodes the composite keys into storage columns.
func (gr *GroupResult) materializeKeys(groupBy []planCol) {
	gr.KeyNames = make([]string, len(groupBy))
	gr.KeyColumns = make([]*storage.Column, len(groupBy))
	for k, pc := range groupBy {
		gr.KeyNames[k] = pc.col.Name
		out := storage.NewColumn(pc.col.Name, pc.col.Kind)
		for g := 0; g < gr.NumGroups; g++ {
			v := gr.Keys[g][k]
			switch pc.col.Kind {
			case storage.KindInt:
				out.AppendInt(v)
			case storage.KindString:
				out.AppendString(pc.col.DictString(int32(v)))
			default:
				out.AppendFloat(float64(v))
			}
		}
		gr.KeyColumns[k] = out
	}
}

// aggregate folds all tasks over the joined rows with morsel-driven
// parallelism: workers claim MorselRows-row morsels from a shared atomic
// cursor, aggregate each morsel into morsel-local partials one BatchSize
// batch at a time (vectorized kernels when the task provides them), and
// every morsel's partials are ⊕-merged into the global partial in
// morsel-index order — so the result, including group order and
// floating-point rounding, is identical for any worker count and any
// scheduling interleaving.
//
// The merge streams: a morsel is merged as soon as every lower-indexed
// morsel has been, by whichever worker completes the sequence. Morsel
// state lives in a fixed set of 2×workers localAggs circulating through
// the free channel. A worker takes one *before* it claims a morsel and the
// merge hands it back with its buffers intact, so a worker running ahead
// of a straggler blocks once that many morsels await their turn: peak
// live partials are O(workers) whatever the morsel count, and nothing
// outlives the call. (Taking the localAgg first is what rules out
// deadlock: claims are sequential, so the lowest unmerged morsel is always
// held by a worker that is running, never by one waiting for a buffer.)
//
// Cancellation is polled once per batch, injected faults fire once per
// morsel (the batch-granularity analogue of PR 1's per-worker fault
// point), and a panicking task poisons only its morsel or merge: the
// recover turns it into an error, and the shared abort flag stops the
// other workers from claiming further morsels.
func (e *Engine) aggregate(ctx context.Context, dp *DataPlan, rs *RowSet, tasks []Task) (*GroupResult, error) {
	nMorsels := (rs.n + MorselRows - 1) / MorselRows
	workers := e.Workers
	if workers > nMorsels {
		workers = nMorsels
	}
	if workers < 1 {
		workers = 1
	}

	// Which tasks run vectorized: resolved once (the knob is snapshotted
	// here, so a concurrent toggle never splits one query across paths),
	// with vec scratch allocated per worker (tasks are shared across
	// workers; VecStates must not be). A task whose NewVecState declines
	// is demoted to the scalar path up front, and accepted kernels are
	// recorded for per-query observability.
	useVec := !e.disableVec.Load()
	q := &aggScan{ctx: ctx, rs: rs, tasks: tasks, ka: newKeyAssign(dp, rs, useVec),
		vecTasks: make([]VectorTask, len(tasks))}
	var kernels []string
	if useVec {
		for t, task := range tasks {
			if vt, ok := task.(VectorTask); ok {
				if probe := vt.NewVecState(); probe != nil {
					q.vecTasks[t] = vt
					kernels = append(kernels, task.Name())
				}
			}
		}
	}

	// Direct-over-encoding run folds (storage engine v2): eligible only
	// for keyless aggregates over an identity row set, where morsel
	// windows are column row ranges and every row folds into group 0.
	// The knob snapshot mirrors useVec; per-morsel exactness checks
	// (RLE coverage, the 2^53 integral guards) live in FoldRuns itself.
	if useVec && !e.disableFold.Load() && rs.identity() && len(dp.groupBy) == 0 {
		for t, task := range tasks {
			if ft, ok := task.(RunFoldTask); ok && q.vecTasks[t] != nil {
				if q.foldTasks == nil {
					q.foldTasks = make([]RunFoldTask, len(tasks))
				}
				q.foldTasks[t] = ft
			}
		}
	}

	free := make(chan *localAgg, 2*workers) // holds every localAgg not in use
	for i := 0; i < cap(free); i++ {
		free <- &localAgg{partials: make([]Partial, len(tasks))}
	}
	var (
		cursor atomic.Int64
		abort  atomic.Bool

		mu      sync.Mutex
		pending = make([]*localAgg, nMorsels) // finished, awaiting their turn
		next    int                           // lowest unmerged morsel
		merging bool
		werrs   []error
	)
	global := newGlobalAgg(q)
	fail := func(err error) {
		mu.Lock()
		werrs = append(werrs, err)
		mu.Unlock()
		abort.Store(true)
	}
	// deliver queues morsel m's finished state and, unless another worker
	// is already merging, merges every morsel that is now next in line.
	// The merges run outside mu (merging keeps them exclusive), so workers
	// delivering later morsels are never held up behind one.
	deliver := func(m int, la *localAgg) {
		mu.Lock()
		pending[m] = la
		if merging {
			mu.Unlock()
			return
		}
		merging = true
		for next < nMorsels && pending[next] != nil && !abort.Load() {
			ready := pending[next]
			pending[next] = nil
			mu.Unlock()
			err := global.merge(ready)
			free <- ready
			mu.Lock()
			if err != nil {
				werrs = append(werrs, err)
				abort.Store(true)
				break
			}
			next++
		}
		merging = false
		mu.Unlock()
	}
	workerBody := func() {
		w := q.newWorker()
		for {
			// Every exit hands the localAgg back, which is also what wakes
			// the next worker blocked here after an abort.
			la := <-free
			m := nMorsels
			if !abort.Load() {
				m = int(cursor.Add(1)) - 1
			}
			if m >= nMorsels {
				free <- la
				return
			}
			if err := w.runMorsel(m, la); err != nil {
				fail(err)
				free <- la
				return
			}
			deliver(m, la)
		}
	}

	// Helper workers draw tokens from the engine-wide pool, which is shared
	// by every concurrent query so N simultaneous aggregations never run
	// more than Engine.Workers goroutines in total. The acquire is
	// non-blocking: if the pool is drained by other queries, this query
	// simply runs on fewer workers. The calling goroutine always
	// participates without a token, so every query makes progress even when
	// the pool is empty (and a single-threaded query needs no token at all).
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		select {
		case e.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-e.sem }()
				defer wg.Done()
				workerBody()
			}()
		default:
			w = workers - 1 // pool drained; stop trying
		}
	}
	workerBody()
	wg.Wait()

	// Fault barrier: worker and merge errors (cancellation, injected
	// faults, recovered panics) fail the whole query.
	if err := ctx.Err(); err != nil {
		return nil, err // prefer the canonical context error
	}
	if len(werrs) > 0 {
		return nil, errors.Join(werrs...)
	}

	// A grand aggregate over zero rows still yields one group (SQL
	// semantics for aggregates without GROUP BY).
	if len(global.keys) == 0 && len(dp.groupBy) == 0 {
		global.keys = append(global.keys, GroupKey{})
	}
	gr := &GroupResult{Rows: rs.n, FilterRows: rs.filterRows, FilterTime: rs.filterTime,
		Kernels: kernels, NumGroups: len(global.keys), Keys: global.keys}
	gr.Values = make([][]float64, len(tasks))
	for t, task := range tasks {
		if global.merged[t] == nil {
			global.merged[t] = task.NewPartial(gr.NumGroups)
		}
		gr.Values[t] = task.Finalize(global.merged[t], gr.NumGroups)
	}
	gr.materializeKeys(dp.groupBy)
	return gr, nil
}

// maxDenseKeyWidth bounds the dense group-lookup tables (one int32 per
// possible key, one table per worker plus one for the merge): 64K entries
// = 256 KiB, comfortably cache- and allocation-cheap next to a 64K-row
// morsel.
const maxDenseKeyWidth = 1 << 16

// keyDomain describes a key column whose values provably fall in a small
// integer range [base, base+width), enabling array-indexed lookups
// instead of a hash probe per row.
type keyDomain struct {
	base  int64
	width int64
	dense bool
}

// nonNegative32 reports whether every key of a dense domain lies in
// [0, 2^31), the precondition for packing two keys into one int64.
func (d keyDomain) nonNegative32() bool {
	return d.dense && d.base >= 0 && d.base+d.width <= 1<<31
}

// keyDomainOf classifies a key column: it is dense when its values span
// at most maxWidth consecutive integers. Int columns use their cached
// min/max stats, dictionary-coded string columns their code range. Float
// keys (truncated to int64 by bindInt) are never dense. This is the one
// place the engine decides between direct addressing and hashing — group
// ids, the merge remap and the join build all ask it, each with the table
// width it is willing to allocate.
//
// Column.Stats is append-aware (recomputed when the column length
// changes), so the domain always covers every value a scan of this
// column version can produce — a stale, narrower domain would make the
// dense lookup table index out of range. The non-finite guard is
// defense in depth for the empty-column (+Inf, -Inf) sentinel: int64
// conversion of a non-finite float is undefined behavior in Go.
func keyDomainOf(col *storage.Column, maxWidth int64) keyDomain {
	switch col.Kind {
	case storage.KindInt:
		if len(col.I) == 0 {
			return keyDomain{}
		}
		min, max := col.Stats()
		if math.IsInf(min, 0) || math.IsInf(max, 0) || math.IsNaN(min) || math.IsNaN(max) {
			return keyDomain{}
		}
		// From 2^53 on the float stats are rounded (2^53+1 reports as
		// 2^53), so int64(min) could disagree with the true minimum and
		// the width arithmetic below could wrap — either would send
		// lookup[k-base] out of range. Bound the span in float space
		// first (exact strictly inside ±2^53).
		if min <= -float64(1<<53) || max >= float64(1<<53) ||
			max-min+1 > float64(maxWidth) {
			return keyDomain{}
		}
		w := int64(max) - int64(min) + 1
		if w > 0 && w <= maxWidth {
			return keyDomain{base: int64(min), width: w, dense: true}
		}
	case storage.KindString:
		if n := int64(col.DictSize()); n > 0 && n <= maxWidth {
			return keyDomain{base: 0, width: n, dense: true}
		}
	}
	return keyDomain{}
}

// keyAssign is a query's group-id assignment decision, made once from the
// key columns' domains and shared by the morsel workers and the merge.
type keyAssign struct {
	fns []func(int32) int64 // one accessor per group-by column
	// lookupLen > 0 selects direct addressing: group ids live in a
	// lookupLen-entry table at slot(key). A keyless aggregate is the
	// one-slot case. Zero means hashing, and packable then says a 2-key
	// composite fits one int64 (both columns within [0, 2^31)), which
	// keeps the map on the runtime's fast64 path.
	lookupLen    int
	base0, base1 int64
	width1       int64
	packable     bool
	// Single dense key: the column's backing storage (ints or codes) and
	// row indirection (nil = identity), so the assign loop reads it
	// directly instead of calling an accessor closure per row.
	ints  []int64
	codes []int32
	rows  []int32
}

// newKeyAssign picks the assignment path. Dense addressing is part of the
// batch machinery, so the vector-kernels knob turns it off with the
// kernels and leaves tuple-at-a-time hashing as the reference.
func newKeyAssign(dp *DataPlan, rs *RowSet, useVec bool) *keyAssign {
	ka := &keyAssign{fns: make([]func(int32) int64, len(dp.groupBy)), width1: 1}
	for i, g := range dp.groupBy {
		ka.fns[i] = rs.bindInt(g)
	}
	switch len(dp.groupBy) {
	case 0:
		ka.lookupLen = 1
	case 1:
		g := dp.groupBy[0]
		if d := keyDomainOf(g.col, maxDenseKeyWidth); useVec && d.dense {
			ka.lookupLen, ka.base0 = int(d.width), d.base
			ka.ints, ka.codes, ka.rows = g.col.I, g.col.Codes, rs.vecs[g.table.Name]
		}
	case 2:
		d0 := keyDomainOf(dp.groupBy[0].col, 1<<31)
		d1 := keyDomainOf(dp.groupBy[1].col, 1<<31)
		ka.packable = d0.nonNegative32() && d1.nonNegative32()
		if useVec && d0.dense && d1.dense && d0.width*d1.width <= maxDenseKeyWidth {
			ka.lookupLen = int(d0.width * d1.width)
			ka.base0, ka.base1, ka.width1 = d0.base, d1.base, d1.width
		}
	}
	return ka
}

// slot is a key's position in a dense lookup table (lookupLen > 0). With
// one key, key[1], base1 and width1 are 0, 0 and 1.
func (ka *keyAssign) slot(key GroupKey) int64 {
	return (key[0]-ka.base0)*ka.width1 + (key[1] - ka.base1)
}

// localAgg is one morsel's aggregation state: its groups in first-
// appearance order and one partial per task. The maps exist only on the
// hash paths. Reused across morsels (see aggregate), buffers and all.
type localAgg struct {
	keys     []GroupKey
	partials []Partial
	idx64    map[int64]int32    // one key, or two packed into an int64
	index    map[GroupKey]int32 // two keys that do not pack
}

func (la *localAgg) reset() {
	la.keys = la.keys[:0]
	for _, p := range la.partials {
		if p != nil {
			p.Reset()
		}
	}
	clear(la.idx64)
	clear(la.index)
}

// globalAgg is the query-wide partial the morsels merge into. Group ids
// are assigned in merge order, i.e. first appearance in global row order.
type globalAgg struct {
	q      *aggScan
	keys   []GroupKey
	merged []Partial
	lookup []int32            // dense: slot → group id, -1 if unseen
	index  map[GroupKey]int32 // hashing
	remap  []int32            // merge scratch: morsel-local id → group id
}

func newGlobalAgg(q *aggScan) *globalAgg {
	g := &globalAgg{q: q, merged: make([]Partial, len(q.tasks))}
	if n := q.ka.lookupLen; n > 0 {
		g.lookup = emptyLookup(make([]int32, n))
	} else {
		g.index = map[GroupKey]int32{}
	}
	return g
}

// emptyLookup marks every slot of a direct-address table unused (-1).
func emptyLookup(l []int32) []int32 {
	for i := range l {
		l[i] = -1
	}
	return l
}

// merge ⊕-folds one morsel's partials into the global partial. Panics
// from task code are recovered into the returned error.
func (g *globalAgg) merge(la *localAgg) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("aggregation merge panic (recovered): %v", r)
		}
	}()
	if cap(g.remap) < len(la.keys) {
		g.remap = make([]int32, len(la.keys))
	}
	remap := g.remap[:len(la.keys)]
	for lg, key := range la.keys {
		if g.lookup != nil {
			s := g.q.ka.slot(key)
			if g.lookup[s] < 0 {
				g.lookup[s] = int32(len(g.keys))
				g.keys = append(g.keys, key)
			}
			remap[lg] = g.lookup[s]
			continue
		}
		gid, ok := g.index[key]
		if !ok {
			gid = int32(len(g.keys))
			g.index[key] = gid
			g.keys = append(g.keys, key)
		}
		remap[lg] = gid
	}
	for t, task := range g.q.tasks {
		g.merged[t] = growPartial(task, g.merged[t], len(g.keys))
		task.Merge(g.merged[t], la.partials[t], remap)
	}
	return nil
}

// growPartial extends p to n groups, allocating it on first use.
func growPartial(task Task, p Partial, n int) Partial {
	if p == nil {
		return task.NewPartial(n)
	}
	return task.Grow(p, n)
}

// aggScan is the read-only, query-wide context of one aggregate call.
type aggScan struct {
	ctx       context.Context
	rs        *RowSet
	tasks     []Task
	vecTasks  []VectorTask  // nil entries run the scalar Accumulate
	foldTasks []RunFoldTask // nil unless run-folds are eligible
	ka        *keyAssign
}

// aggWorker is one worker's private scratch: group ids for one batch,
// each vectorized task's kernel buffers, and the dense lookup table of
// morsel-local group ids (reset per morsel).
type aggWorker struct {
	*aggScan
	gids      []int32
	vecStates []VecState
	foldMask  []bool
	lookup    []int32
}

func (q *aggScan) newWorker() *aggWorker {
	w := &aggWorker{aggScan: q, gids: make([]int32, BatchSize), vecStates: make([]VecState, len(q.tasks))}
	for t, vt := range q.vecTasks {
		if vt != nil {
			w.vecStates[t] = vt.NewVecState()
		}
	}
	if q.foldTasks != nil {
		w.foldMask = make([]bool, len(q.tasks))
	}
	if n := q.ka.lookupLen; n > 0 {
		w.lookup = make([]int32, n)
	}
	return w
}

// newDenseGroup is the cold path of dense assignment: one call per
// distinct group per morsel.
func newDenseGroup(lookup []int32, slot int64, keys *[]GroupKey, key GroupKey) int32 {
	gid := int32(len(*keys))
	lookup[slot] = gid
	*keys = append(*keys, key)
	return gid
}

// denseAssign maps rows [blo, bhi) of a single dense key column (int
// values or dictionary codes) to morsel-local group ids.
func denseAssign[K int32 | int64](vals []K, rows []int32, base int64, lookup []int32,
	keys *[]GroupKey, blo, bhi int, gids []int32) {

	gids = gids[:bhi-blo]
	if rows == nil {
		for j, v := range vals[blo:bhi] {
			k := int64(v)
			gid := lookup[k-base]
			if gid < 0 {
				gid = newDenseGroup(lookup, k-base, keys, GroupKey{k, 0})
			}
			gids[j] = gid
		}
		return
	}
	for j, r := range rows[blo:bhi] {
		k := int64(vals[r])
		gid := lookup[k-base]
		if gid < 0 {
			gid = newDenseGroup(lookup, k-base, keys, GroupKey{k, 0})
		}
		gids[j] = gid
	}
}

// runMorsel aggregates rows [m*MorselRows, min((m+1)*MorselRows, n)) into
// la, one batch at a time. Panics from task code are recovered into the
// returned error.
func (w *aggWorker) runMorsel(m int, la *localAgg) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("aggregation worker panic (recovered): %v", r)
		}
	}()
	lo, hi := m*MorselRows, (m+1)*MorselRows
	if hi > w.rs.n {
		hi = w.rs.n
	}
	if err := faultinject.Hit(faultinject.PointExecWorker); err != nil {
		return err
	}
	la.reset()
	// Group ids are morsel-local: empty the lookup for this morsel.
	ka, lookup, keys := w.ka, emptyLookup(w.lookup), &la.keys
	// assign maps rows [blo, bhi) to morsel-local group ids; the lookup
	// or hash index persists across the morsel's batches.
	var assign func(blo, bhi int, gids []int32)
	switch {
	case len(ka.fns) == 0:
		*keys = append(*keys, GroupKey{})
		assign = func(blo, bhi int, gids []int32) {
			for i := range gids {
				gids[i] = 0
			}
		}
	case lookup != nil && ka.ints != nil:
		assign = func(blo, bhi int, gids []int32) {
			denseAssign(ka.ints, ka.rows, ka.base0, lookup, keys, blo, bhi, gids)
		}
	case lookup != nil && ka.codes != nil:
		assign = func(blo, bhi int, gids []int32) {
			denseAssign(ka.codes, ka.rows, ka.base0, lookup, keys, blo, bhi, gids)
		}
	case lookup != nil && len(ka.fns) == 2:
		f0, f1 := ka.fns[0], ka.fns[1]
		assign = func(blo, bhi int, gids []int32) {
			for i := blo; i < bhi; i++ {
				key := GroupKey{f0(int32(i)), f1(int32(i))}
				s := ka.slot(key)
				gid := lookup[s]
				if gid < 0 {
					gid = newDenseGroup(lookup, s, keys, key)
				}
				gids[i-blo] = gid
			}
		}
	case len(ka.fns) == 1:
		if la.idx64 == nil {
			la.idx64 = make(map[int64]int32, 256)
		}
		idx, fn := la.idx64, ka.fns[0]
		assign = func(blo, bhi int, gids []int32) {
			for i := blo; i < bhi; i++ {
				k := fn(int32(i))
				gid, ok := idx[k]
				if !ok {
					gid = int32(len(*keys))
					idx[k] = gid
					*keys = append(*keys, GroupKey{k, 0})
				}
				gids[i-blo] = gid
			}
		}
	case ka.packable:
		if la.idx64 == nil {
			la.idx64 = make(map[int64]int32, 256)
		}
		idx, f0, f1 := la.idx64, ka.fns[0], ka.fns[1]
		assign = func(blo, bhi int, gids []int32) {
			for i := blo; i < bhi; i++ {
				a, b := f0(int32(i)), f1(int32(i))
				gid, ok := idx[a<<32|b]
				if !ok {
					gid = int32(len(*keys))
					idx[a<<32|b] = gid
					*keys = append(*keys, GroupKey{a, b})
				}
				gids[i-blo] = gid
			}
		}
	default:
		if la.index == nil {
			la.index = map[GroupKey]int32{}
		}
		index, f0, f1 := la.index, ka.fns[0], ka.fns[1]
		assign = func(blo, bhi int, gids []int32) {
			for i := blo; i < bhi; i++ {
				key := GroupKey{f0(int32(i)), f1(int32(i))}
				gid, ok := index[key]
				if !ok {
					gid = int32(len(*keys))
					index[key] = gid
					*keys = append(*keys, key)
				}
				gids[i-blo] = gid
			}
		}
	}
	// Run-fold fast path: each fold-capable task gets one shot at the
	// whole morsel. A task that folds (exactly, into group 0 — the
	// caller only enables folds for keyless identity scans) skips the
	// batch loop below; a declined fold costs nothing and falls through
	// to the dense path. When every task folds, the batch loop vanishes
	// and the morsel is aggregated in O(runs).
	remaining := len(w.tasks)
	for t, ft := range w.foldTasks {
		w.foldMask[t] = false
		if ft == nil {
			continue
		}
		la.partials[t] = growPartial(w.tasks[t], la.partials[t], len(*keys))
		if ft.FoldRuns(la.partials[t], lo, hi) {
			w.foldMask[t] = true
			remaining--
		}
	}
	if remaining == 0 {
		return nil
	}
	for blo := lo; blo < hi; blo += BatchSize {
		// Cooperative cancellation at batch granularity.
		if err := w.ctx.Err(); err != nil {
			return err
		}
		bhi := blo + BatchSize
		if bhi > hi {
			bhi = hi
		}
		bg := w.gids[:bhi-blo]
		assign(blo, bhi, bg)
		ng := len(*keys)
		for t, task := range w.tasks {
			if w.foldTasks != nil && w.foldMask[t] {
				continue
			}
			la.partials[t] = growPartial(task, la.partials[t], ng)
			if vt := w.vecTasks[t]; vt != nil && w.vecStates[t] != nil {
				vt.AccumulateVec(w.vecStates[t], la.partials[t], blo, bhi, bg)
			} else {
				task.Accumulate(la.partials[t], blo, bhi, bg)
			}
		}
	}
	return nil
}

// ---- float-array partial helpers ----

type floatsPartial struct {
	arrs [][]float64
}

func newFloats(n int, fills ...float64) *floatsPartial {
	fp := &floatsPartial{arrs: make([][]float64, len(fills))}
	for i, fill := range fills {
		a := make([]float64, n)
		if fill != 0 {
			for j := range a {
				a[j] = fill
			}
		}
		fp.arrs[i] = a
	}
	return fp
}

// grow extends every array to n groups, the new ones at their fill
// value. Capacity doubles, so growing batch by batch costs O(log n)
// allocations, and a Reset partial regrows inside the buffers it has.
func (fp *floatsPartial) grow(n int, fills ...float64) {
	for i, a := range fp.arrs {
		old := len(a)
		if n <= old {
			continue
		}
		if n > cap(a) {
			c := 2 * cap(a)
			if c < n {
				c = n
			}
			a = append(make([]float64, 0, c), a...)
		}
		a = a[:n]
		for j := old; j < n; j++ {
			a[j] = fills[i]
		}
		fp.arrs[i] = a
	}
}

// Reset implements Partial.
func (fp *floatsPartial) Reset() {
	for i := range fp.arrs {
		fp.arrs[i] = fp.arrs[i][:0]
	}
}
