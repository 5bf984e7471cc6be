package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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

// Scratch is one worker's private scratch for a task: batch buffers and
// compiled fillers that must not be shared between goroutines. It carries
// no accumulation state — all per-group state stays in the Partial, so
// results are independent of which worker ran which morsel.
type Scratch interface{}

// Task is an aggregate computation folded over the joined rows. The
// engine drives it through the IUME contract: NewPartial/Accumulate per
// partition, Merge across partitions, Finalize per group. Tasks are shared
// by the workers, each of which folds with a Scratch of its own.
type Task interface {
	// Name identifies the task in results.
	Name() string
	// NewScratch allocates one worker's scratch.
	NewScratch() Scratch
	// NewPartial allocates accumulation state for ngroups groups.
	NewPartial(ngroups int) Partial
	// Grow extends a partial to ngroups groups.
	Grow(p Partial, ngroups int) Partial
	// Accumulate folds rows [lo, hi) (hi-lo ≤ BatchSize) into the partial
	// slots ix names, in row order within each slot, using s as scratch.
	// Its rows arrive indexed by what the scan has, not by a group-id
	// vector built for them: a keyless batch names no group at all, and a
	// fully covered dense key hands over the key column itself.
	Accumulate(s Scratch, p Partial, lo, hi int, ix GroupIndex)
	// Merge folds src group g_src into dst group remap[g_src].
	Merge(dst, src Partial, remap []int32)
	// Finalize extracts the per-group result values.
	Finalize(p Partial, ngroups int) []float64
}

// GroupIndex says which partial slot each row of a batch folds into. It
// has three forms:
//
//   - keyless (the zero value): every row folds into slot 0;
//   - IDs: slot IDs[j] − Base for row lo+j: group ids (Base 0), or the
//     dictionary codes of a key column read in place;
//   - Keys: slot Keys[j] − Base, an int key column read in place.
type GroupIndex struct {
	IDs  []int32
	Keys []int64
	Base int64
}

// keylessIDs is a keyless batch's id vector wherever one is needed (the
// interpreted UDAF, a kernel batch that falls back to the keyed loops):
// group 0 for every row. It is only ever read.
var keylessIDs [BatchSize]int32

// slots is the slot of each of a batch's n rows as a group-id vector, for
// a task that folds by one (NaiveUDAFTask): keylessIDs[:n] for a keyless
// batch, otherwise written into dst.
func (ix GroupIndex) slots(dst []int32, n int) []int32 {
	switch {
	case ix.Keys != nil:
		return keySlots(ix.Keys, ix.Base, dst)
	case ix.IDs != nil:
		return keySlots(ix.IDs, ix.Base, dst)
	}
	return keylessIDs[:n]
}

func keySlots[K int32 | int64](keys []K, base int64, dst []int32) []int32 {
	dst = dst[:len(keys)]
	for j, k := range keys {
		dst[j] = int32(int64(k) - base)
	}
	return dst
}

// Fold names how a scan's rows reach their states (GroupResult.Fold).
const (
	// FoldKeyless: no GROUP BY. Kernels fold each batch in a register.
	FoldKeyless = "keyless"
	// FoldKey: one dense key over an identity row set whose every slot
	// appeared. Partials are indexed by key − base and the kernels read
	// the key column; the slot → group-id permutation is applied once,
	// to the finalized values.
	FoldKey = "key"
	// FoldIDs: any other dense key. Each batch's group ids come from the
	// first-appearance pass's slot table.
	FoldIDs = "ids"
	// FoldHash: keys that are not dense. Each morsel numbers its groups
	// through a map, and the merge remaps them.
	FoldHash = "hash"
)

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
	// OrderRows is the number of rows the dense key path's first-appearance
	// pass read (observability): fewer than Rows when every key of the
	// domain had appeared before the last row; 0 on the hash paths and for
	// keyless aggregates, which need no pass.
	OrderRows int
	// Joins are the join's build tables in the order they were probed,
	// and ProbeRows the rows those probes read, summed (observability;
	// both empty for one table).
	Joins     []string
	ProbeRows int
	// Kernels names the tasks that ran through compiled batch kernels:
	// the state tasks, as opposed to interpreted UDAFs (per-query
	// observability).
	Kernels []string
	// Fold is how rows reached their states: FoldKeyless, FoldKey,
	// FoldIDs or FoldHash (observability).
	Fold string
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
// batch at a time (Task.Accumulate), and every morsel's partials are
// ⊕-merged into the global partial in morsel-index order — so the result,
// including group order and floating-point rounding, is identical for any
// worker count and any scheduling interleaving.
//
// A dense key (keyDomainOf) gets its group ids once per scan, before any
// morsel runs: the first-appearance pass numbers the domain's slots in
// row order, so every morsel accumulates straight into partials that
// hold all of the scan's groups, and the merge is an aligned ⊕: no morsel
// discovers a group, and the merge looks none up. Hashed keys number
// their groups per morsel and remap them in the merge.
//
// Tasks fold where their state lives (GroupResult.Fold). A keyless scan
// builds no group-id vector: each kernel folds a batch in a register.
// One dense key over an identity row set whose pass found every
// slot of the domain folds by the key column itself: partials are
// indexed by key − base, the merge stays aligned, and the slot → group-id
// permutation is applied once, to the finalized values. Any other dense
// scan writes each batch's group ids from the slot table, so its partials
// never grow past the groups that occur.
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
// Cancellation is polled once per batch (once per cancelCheckRows rows
// in the first-appearance pass), injected faults fire once per morsel,
// and a panicking task poisons only its morsel or merge: the recover
// turns it into an error, and the shared abort flag stops the other
// workers from claiming further morsels.
func (e *Engine) aggregate(ctx context.Context, dp *DataPlan, rs *RowSet, tasks []Task) (*GroupResult, error) {
	nMorsels := (rs.n + MorselRows - 1) / MorselRows
	workers := e.Workers
	if workers > nMorsels {
		workers = nMorsels
	}
	if workers < 1 {
		workers = 1
	}

	q := &aggScan{ctx: ctx, rs: rs, tasks: tasks, ka: newKeyAssign(dp, rs)}
	orderRows := 0
	if q.ka.lookupLen > 0 {
		var err error
		if q.order, q.groups, orderRows, err = q.ka.firstAppearance(ctx, rs.n); err != nil {
			return nil, err
		}
	}
	switch {
	case len(dp.groupBy) == 0:
		q.fold = FoldKeyless
	case q.order == nil:
		q.fold = FoldHash
	case len(q.groups) == len(q.order) && len(dp.groupBy) == 1 && rs.identity():
		q.fold = FoldKey
	default:
		q.fold = FoldIDs
	}

	// Direct-over-encoding run folds (storage engine v2): eligible only
	// for the state tasks of keyless aggregates over an identity row set,
	// where morsel windows are column row ranges and every row folds into
	// group 0. Per-morsel exactness checks (RLE coverage, the 2^53
	// integral guards) live in FoldRuns itself.
	var kernels []string
	foldable := rs.identity() && len(dp.groupBy) == 0
	for t, task := range tasks {
		st, ok := task.(*StateTask)
		if !ok {
			continue
		}
		kernels = append(kernels, task.Name())
		if foldable {
			if q.foldTasks == nil {
				q.foldTasks = make([]*StateTask, len(tasks))
			}
			q.foldTasks[t] = st
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

	gr := &GroupResult{Rows: rs.n, FilterRows: rs.filterRows, FilterTime: rs.filterTime,
		Joins: rs.joins, ProbeRows: rs.probeRows,
		OrderRows: orderRows, Kernels: kernels, Fold: q.fold, NumGroups: len(global.keys), Keys: global.keys}
	gr.Values = make([][]float64, len(tasks))
	var spare []float64 // FoldKey: the permutation's target, then the last source
	for t, task := range tasks {
		if global.merged[t] == nil {
			global.merged[t] = task.NewPartial(gr.NumGroups)
		}
		vals := task.Finalize(global.merged[t], gr.NumGroups)
		if q.fold == FoldKey {
			// Finalize computes each group from its own states alone, so
			// permuting its output is permuting the partial: slot s's value
			// moves to group order[s], with no arithmetic.
			if spare == nil {
				spare = make([]float64, len(vals))
			}
			for s, g := range q.order {
				spare[g] = vals[s]
			}
			vals, spare = spare, vals
		}
		gr.Values[t] = vals
	}
	gr.materializeKeys(dp.groupBy)
	return gr, nil
}

// maxDenseKeyWidth bounds a dense key's slot table (one int32 per
// possible key, one table per scan, filled by the first-appearance pass
// and read by every morsel): 64K entries = 256 KiB, comfortably cache-
// and allocation-cheap next to a 64K-row morsel.
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
// place the engine decides between direct addressing and hashing — the
// scan's one slot table of group ids and the join build both ask it,
// each with the table width it is willing to allocate.
//
// Column.Stats is append-aware (recomputed when the column length
// changes), so the domain always covers every value a scan of this
// column version can produce — a stale, narrower domain would make the
// slot table index out of range. The non-finite guard is defense in
// depth for the empty-column (+Inf, -Inf) sentinel: int64 conversion of
// a non-finite float is undefined behavior in Go.
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
		// order[k-base] out of range. Bound the span in float space
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
// key columns' domains and shared by the morsel workers and the merge. On
// the dense paths it also hands the kernels their index: the slot table's
// group ids (groupIDs), or, once the first-appearance pass has found the
// domain full, the single key column itself (keyIndex).
type keyAssign struct {
	fns []func(int32) int64 // one accessor per group-by column
	// lookupLen > 0 selects direct addressing: a key's group id lives in
	// a lookupLen-entry slot table at slot(key). A keyless aggregate is
	// the one-slot case. Zero means hashing, and packable then says a
	// 2-key composite fits one int64 (both columns within [0, 2^31)),
	// which keeps the map on the runtime's fast64 path.
	lookupLen    int
	base0, base1 int64
	width1       int64
	packable     bool
	// Single dense key: the column's backing storage (ints or codes) and
	// row indirection (nil = identity), so the group-id loop reads it
	// directly instead of calling an accessor closure per row.
	ints  []int64
	codes []int32
	rows  []int32
}

// newKeyAssign picks the assignment path: direct addressing for keys
// whose domains are dense and narrow enough, hashing for the rest.
func newKeyAssign(dp *DataPlan, rs *RowSet) *keyAssign {
	ka := &keyAssign{fns: make([]func(int32) int64, len(dp.groupBy)), width1: 1}
	for i, g := range dp.groupBy {
		ka.fns[i] = rs.bindInt(g)
	}
	switch len(dp.groupBy) {
	case 0:
		ka.lookupLen = 1
	case 1:
		g := dp.groupBy[0]
		if d := keyDomainOf(g.col, maxDenseKeyWidth); d.dense {
			ka.lookupLen, ka.base0 = int(d.width), d.base
			ka.ints, ka.codes, ka.rows = g.col.I, g.col.Codes, rs.vecs[g.table.Name]
		}
	case 2:
		d0 := keyDomainOf(dp.groupBy[0].col, 1<<31)
		d1 := keyDomainOf(dp.groupBy[1].col, 1<<31)
		ka.packable = d0.nonNegative32() && d1.nonNegative32()
		if d0.dense && d1.dense && d0.width*d1.width <= maxDenseKeyWidth {
			ka.lookupLen = int(d0.width * d1.width)
			ka.base0, ka.base1, ka.width1 = d0.base, d1.base, d1.width
		}
	}
	return ka
}

// slot is a key's position in a dense slot table (lookupLen > 0). With
// one key, key[1], base1 and width1 are 0, 0 and 1.
func (ka *keyAssign) slot(key GroupKey) int64 {
	return (key[0]-ka.base0)*ka.width1 + (key[1] - ka.base1)
}

// keyOf is row i's group key.
func (ka *keyAssign) keyOf(i int) GroupKey {
	var key GroupKey
	for c, fn := range ka.fns {
		key[c] = fn(int32(i))
	}
	return key
}

// keyIndex is rows [lo, hi) of a single dense key read in place, as the
// GroupIndex of the key-indexed fold (FoldKey).
func (ka *keyAssign) keyIndex(lo, hi int) GroupIndex {
	if ka.ints != nil {
		return GroupIndex{Keys: ka.ints[lo:hi], Base: ka.base0}
	}
	return GroupIndex{IDs: ka.codes[lo:hi], Base: ka.base0}
}

// groupIDs writes order[slot] for rows [lo, hi) of a keyed dense domain
// (lookupLen > 0) into dst and returns dst[:hi-lo]: the rows' group ids
// once order is the first-appearance pass's table.
func (ka *keyAssign) groupIDs(order []int32, lo, hi int, dst []int32) []int32 {
	dst = dst[:hi-lo]
	switch {
	case len(ka.fns) == 2:
		f0, f1 := ka.fns[0], ka.fns[1]
		for j := range dst {
			dst[j] = order[ka.slot(GroupKey{f0(int32(lo + j)), f1(int32(lo + j))})]
		}
	case ka.ints != nil:
		denseIDs(ka.ints, ka.rows, ka.base0, order, lo, dst)
	default:
		denseIDs(ka.codes, ka.rows, ka.base0, order, lo, dst)
	}
	return dst
}

// denseIDs is groupIDs for a single dense key column (int values or
// dictionary codes), read in place or through the row vector.
func denseIDs[K int32 | int64](vals []K, rows []int32, base int64, order []int32, lo int, dst []int32) {
	if rows == nil {
		for j, v := range vals[lo : lo+len(dst)] {
			dst[j] = order[int64(v)-base]
		}
		return
	}
	for j, r := range rows[lo : lo+len(dst)] {
		dst[j] = order[int64(vals[r])-base]
	}
}

// firstAppearance is a dense key's one group discovery per scan: it walks
// rows [0, n) in row order and numbers each slot at its first row, so
// group ids are first appearance in global row order, as the hash paths'
// merge numbers them. It stops as soon as every slot of the domain has
// appeared. order maps a slot to its group id (-1 for a key no row
// holds), keys lists the groups by id, and read is the number of rows
// walked. A keyless aggregate has its one group whatever the rows, and
// reads none.
func (ka *keyAssign) firstAppearance(ctx context.Context, n int) (order []int32, keys []GroupKey, read int, err error) {
	order = emptyLookup(make([]int32, ka.lookupLen))
	if len(ka.fns) == 0 {
		order[0] = 0
		return order, []GroupKey{{}}, 0, nil
	}
	buf := make([]int32, BatchSize)
	keys = make([]GroupKey, 0, min(ka.lookupLen, n)) // no more groups than slots or rows
	for lo := 0; lo < n; lo += BatchSize {
		if lo%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, lo, err
			}
		}
		for j, gid := range ka.groupIDs(order, lo, min(lo+BatchSize, n), buf) {
			if gid >= 0 {
				continue
			}
			key := ka.keyOf(lo + j)
			s := ka.slot(key)
			if order[s] >= 0 { // numbered earlier in this batch
				continue
			}
			order[s] = int32(len(keys))
			keys = append(keys, key)
			if len(keys) == len(order) {
				return order, keys, lo + j + 1, nil
			}
		}
	}
	// The keys outlive the scan (a cached group table holds them), so a
	// pass that found far fewer groups than it reserved for keeps a copy
	// of its own length.
	if len(keys) < cap(keys)/2 {
		keys = slices.Clone(keys)
	}
	return order, keys, n, nil
}

// localAgg is one morsel's aggregation state: one partial per task and,
// on the hash paths, the morsel's groups in first-appearance order with
// the map that numbers them (a dense scan's partials hold every group of
// the scan instead). Reused across morsels (see aggregate), buffers and
// all.
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
// are first appearance in global row order: numbered up front by the
// first-appearance pass on the dense paths, in merge order on the hash
// paths.
type globalAgg struct {
	q      *aggScan
	keys   []GroupKey
	merged []Partial
	index  map[GroupKey]int32 // hash paths: key → group id
	// remap maps a morsel's group ids to global ones: the identity on the
	// dense paths, fixed for the scan; on the hash paths, scratch rebuilt
	// per merge.
	remap []int32
}

func newGlobalAgg(q *aggScan) *globalAgg {
	g := &globalAgg{q: q, keys: q.groups, merged: make([]Partial, len(q.tasks))}
	if q.order == nil {
		g.index = map[GroupKey]int32{}
		return g
	}
	g.remap = make([]int32, len(q.groups))
	for i := range g.remap {
		g.remap[i] = int32(i)
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

// merge ⊕-folds one morsel's partials into the global partial. A dense
// scan's morsel partials already index the global groups, so their ⊕ is
// aligned: group g into group g, with nothing to look up. It still runs
// through Task.Merge's one loop (under the identity remap), so both paths
// merge with the same instructions. A group the morsel never saw merges
// its ⊕ identity, which leaves every global partial bit for bit as it was
// (DESIGN.md §8). Panics from task code are recovered into the returned
// error.
func (g *globalAgg) merge(la *localAgg) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("aggregation merge panic (recovered): %v", r)
		}
	}()
	remap := g.remap
	if g.index != nil {
		if cap(g.remap) < len(la.keys) {
			g.remap = make([]int32, len(la.keys))
		}
		remap = g.remap[:len(la.keys)]
		for lg, key := range la.keys {
			gid, ok := g.index[key]
			if !ok {
				gid = int32(len(g.keys))
				g.index[key] = gid
				g.keys = append(g.keys, key)
			}
			remap[lg] = gid
		}
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
	foldTasks []*StateTask // nil unless run-folds are eligible
	ka        *keyAssign
	// Dense paths: the first-appearance pass's slot → group id table and
	// the scan's groups by id (both nil on the hash paths).
	order  []int32
	groups []GroupKey
	fold   string // FoldKeyless, FoldKey, FoldIDs or FoldHash
}

// aggWorker is one worker's private scratch: group ids for one batch and
// each task's Scratch.
type aggWorker struct {
	*aggScan
	gids     []int32
	scratch  []Scratch
	foldMask []bool
}

func (q *aggScan) newWorker() *aggWorker {
	w := &aggWorker{aggScan: q, gids: make([]int32, BatchSize), scratch: make([]Scratch, len(q.tasks))}
	for t, task := range q.tasks {
		w.scratch[t] = task.NewScratch()
	}
	if q.foldTasks != nil {
		w.foldMask = make([]bool, len(q.tasks))
	}
	return w
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
	ka, keys := w.ka, &la.keys
	// assign maps rows [blo, bhi) to group ids and returns the number of
	// groups the partials must hold: all of the scan's on the ids path
	// (global ids, fixed by the first-appearance pass), the morsel's so
	// far on the hash paths (local ids; the index persists across the
	// morsel's batches). The keyless and key-indexed folds assign none.
	var assign func(blo, bhi int, gids []int32) int
	switch {
	case w.fold == FoldKeyless || w.fold == FoldKey:
		// No ids: the kernels read the batch as it is.
	case w.fold == FoldIDs:
		order, ng := w.order, len(w.groups)
		assign = func(blo, bhi int, gids []int32) int {
			ka.groupIDs(order, blo, bhi, gids)
			return ng
		}
	case len(ka.fns) == 1:
		if la.idx64 == nil {
			la.idx64 = make(map[int64]int32, 256)
		}
		idx, fn := la.idx64, ka.fns[0]
		assign = func(blo, bhi int, gids []int32) int {
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
			return len(*keys)
		}
	case ka.packable:
		if la.idx64 == nil {
			la.idx64 = make(map[int64]int32, 256)
		}
		idx, f0, f1 := la.idx64, ka.fns[0], ka.fns[1]
		assign = func(blo, bhi int, gids []int32) int {
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
			return len(*keys)
		}
	default:
		if la.index == nil {
			la.index = map[GroupKey]int32{}
		}
		index, f0, f1 := la.index, ka.fns[0], ka.fns[1]
		assign = func(blo, bhi int, gids []int32) int {
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
			return len(*keys)
		}
	}
	// Run-fold fast path: each fold-capable task gets one shot at the
	// whole morsel. A task that folds (exactly, into group 0 — the
	// caller only enables folds for keyless identity scans, whose one
	// group the first-appearance pass numbered) skips the batch loop
	// below; a declined fold costs nothing and falls through to the dense
	// path. When every task folds, the batch loop vanishes and the morsel
	// is aggregated in O(runs).
	remaining := len(w.tasks)
	for t, ft := range w.foldTasks {
		w.foldMask[t] = false
		if ft == nil {
			continue
		}
		la.partials[t] = growPartial(w.tasks[t], la.partials[t], len(w.groups))
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
		var (
			ix GroupIndex
			ng = len(w.groups)
		)
		switch w.fold {
		case FoldKeyless:
			// The zero GroupIndex: every row folds into slot 0.
		case FoldKey:
			ix = ka.keyIndex(blo, bhi)
		default:
			ix.IDs = w.gids[:bhi-blo]
			ng = assign(blo, bhi, ix.IDs)
		}
		for t, task := range w.tasks {
			if w.foldTasks != nil && w.foldMask[t] {
				continue
			}
			la.partials[t] = growPartial(task, la.partials[t], ng)
			task.Accumulate(w.scratch[t], la.partials[t], blo, bhi, ix)
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
