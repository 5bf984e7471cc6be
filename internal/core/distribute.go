// Scatter-gather distribution: the session side of internal/shard. A
// sharded session (Options.Shards > 1) partitions every registered table
// into contiguous row-range slice versions — sealed and epoch-stamped
// once, so per-shard cache fingerprints are stable across queries — and
// executes SUDAF-mode aggregations as N partial state scans ⊕-merged at
// the coordinator.
//
// Correctness rests on the paper's canonical form: every aggregation
// state is a commutative-monoid fold over the input multiset, so
// states(shard₀ ⊎ … ⊎ shardₙ) = states(shard₀) ⊕ … ⊕ states(shardₙ)
// exactly (no floating-point caveat: the merge performs the same ⊕
// reductions the single-engine morsel merge would, over the same
// contiguous row ranges, in the same order). Baseline mode does not
// distribute: its hardcoded UDAF accumulators carry no merge contract —
// which is precisely the paper's argument for canonicalization.
package core

import (
	"context"
	"sync"
	"sync/atomic"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/exec"
	"sudaf/internal/shard"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// ShardStats are session-lifetime scatter-gather counters (zero-valued
// on an unsharded session). Also exported as the sudaf_shard_* metric
// families.
type ShardStats struct {
	// Shards is the configured shard count (0 when sharding is off).
	Shards int
	// Tables is the number of tables with a live shard set.
	Tables int
	// Queries counts queries executed scatter-gather; Fallbacks counts
	// queries a sharded session ran single-engine instead (baseline mode
	// excluded — only plans that were eligible but not distributable:
	// epoch mismatch with an in-flight append, view rewrites, subquery
	// temporaries).
	Queries   int64
	Fallbacks int64
	// Scans counts per-shard worker scans (including full cache hits);
	// FullHits the scans answered entirely from a worker's cache;
	// StateHits the individual states served from worker caches;
	// RowsScanned the base rows read by partial recomputations.
	Scans       int64
	FullHits    int64
	StateHits   int64
	RowsScanned int64
	// AppendsRouted counts append batches routed to their owning shard;
	// EntriesMaintained the worker-cache entries ⊕-maintained in place
	// across those appends.
	AppendsRouted     int64
	EntriesMaintained int64
}

// shardSet is one table's partitioning: contiguous [lo, hi) row ranges
// and the matching slice versions, index-aligned with the workers. A set
// is immutable after install — appends and re-registrations build a new
// set — so queries can hold one without locks.
type shardSet struct {
	table     string
	baseEpoch int64    // epoch of the table version the set partitions
	ranges    [][2]int // per-shard [lo, hi) over the base table's rows
	slices    []*storage.Table
}

// shardRuntime is the per-session scatter-gather state: the in-process
// workers (each with a private state cache) and the per-table shard
// sets. Sets are rebuilt under ingestMu (Register, Append) and read via
// pointer snapshot by queries.
type shardRuntime struct {
	n       int
	workers []*shard.InProc

	mu   sync.RWMutex
	sets map[string]*shardSet

	queries           atomic.Int64
	fallbacks         atomic.Int64
	appendsRouted     atomic.Int64
	entriesMaintained atomic.Int64
}

// newShardRuntime builds the workers. Each worker's private cache gets
// an equal share of the session cache budget.
func newShardRuntime(s *Session, n int, cacheBytes int64) *shardRuntime {
	per := cacheBytes
	if per <= 0 {
		per = 256 << 20
	}
	per /= int64(n)
	r := &shardRuntime{n: n, sets: map[string]*shardSet{}}
	for i := 0; i < n; i++ {
		r.workers = append(r.workers, shard.NewInProc(s.eng, per, s.space))
	}
	return r
}

// rebuild (re)partitions a just-registered table version into the shard
// set. Caller holds ingestMu. Slices are stamped with their own epochs
// here, exactly once, so a worker re-registering one into a per-query
// overlay keeps a stable fingerprint.
func (r *shardRuntime) rebuild(t *storage.Table) {
	ranges := t.Partition(r.n)
	slices := make([]*storage.Table, r.n)
	for i, rg := range ranges {
		sl := t.Slice(rg[0], rg[1])
		sl.Epoch = storage.NextEpoch()
		sl.Seal()
		slices[i] = sl
	}
	set := &shardSet{table: t.Name, baseEpoch: t.Epoch, ranges: ranges, slices: slices}
	r.mu.Lock()
	r.sets[t.Name] = set
	r.mu.Unlock()
}

// setFor returns a table's current shard set.
func (r *shardRuntime) setFor(name string) (*shardSet, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	set, ok := r.sets[name]
	return set, ok
}

// pickSet chooses the scatter dimension for a data plan: the largest
// referenced table whose shard set partitions exactly the version the
// query pinned. A mismatched epoch (an append or re-registration slipped
// between the snapshot and here, or a subquery temp shadows the name)
// disqualifies the table — the torn-snapshot guard; every other table
// resolves at its pinned version inside each worker's overlay.
func (r *shardRuntime) pickSet(dp *exec.DataPlan) *shardSet {
	var best *shardSet
	bestRows := -1
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, ep := range dp.TableEpochs() {
		set, ok := r.sets[name]
		if !ok || set.baseEpoch != ep {
			continue
		}
		if rows := set.ranges[len(set.ranges)-1][1]; rows > bestRows {
			best, bestRows = set, rows
		}
	}
	return best
}

// ruleDistribute (distribute phase) replaces the query's local fused
// scan with a scatter-gather execution when the session is sharded and
// the plan is distributable: SUDAF mode (canonical states are what makes
// partials mergeable), not windowed (frames need rows in one
// chronological pass), no full cache hit, no batch-provided result, no
// view rewrite (roll-up states read view tables, which are coordinator
// business), and a registered task for every state. A shard failure
// surfaces as the query's one typed error; a non-distributable plan
// falls back to the single-engine scan silently.
func ruleDistribute(ctx context.Context, ps *planState) error {
	s := ps.s
	if s.shards == nil || ps.mode == ModeBaseline || ps.stmt.Window != nil || ps.fullHit || ps.gr != nil ||
		ps.usedView != "" || ps.dpRun != ps.dp || ps.reg == nil || ps.reg.Len() == 0 {
		return nil
	}
	states, ok := ps.taskStates()
	if !ok {
		s.shards.fallbacks.Add(1)
		return nil
	}
	gr, ok, err := s.scatter(ctx, ps.qc, ps.stmt, ps.dp, states, ps.mode == ModeShare)
	if err != nil {
		return err
	}
	if ok {
		ps.gr = gr
	}
	return nil
}

// taskStates reconstructs the task registry's state list in task order
// from the plan's missing slots and sign-split companions — what a
// scatter sends to the workers and what a windowed scan folds. ok is
// false when any registry index is not covered by a canonical state
// (never the case for plans built by the standard pipeline — this is a
// bail-out, not an error path).
func (ps *planState) taskStates() ([]canonical.State, bool) {
	n := ps.reg.Len()
	states := make([]canonical.State, n)
	have := make([]bool, n)
	fill := func(sl *slot) bool {
		if sl.taskIdx < 0 || sl.taskIdx >= n {
			return false
		}
		states[sl.taskIdx] = sl.st
		have[sl.taskIdx] = true
		return true
	}
	for _, sl := range ps.missing {
		if !fill(sl) {
			return nil, false
		}
	}
	for _, sl := range ps.companions {
		if !fill(sl) {
			return nil, false
		}
	}
	for _, h := range have {
		if !h {
			return nil, false
		}
	}
	return states, true
}

// scatter runs the states over the shard workers and merges the partials
// into a GroupResult shaped exactly like the single-engine scan would
// produce (Values indexed by registry task index, groups in global
// first-appearance order). ok=false means the plan was not
// distributable; err is a real shard failure (typed errs.ErrShard).
func (s *Session) scatter(ctx context.Context, qc *queryCtx, stmt *sqlparse.Stmt, dp *exec.DataPlan,
	states []canonical.State, useCache bool) (*exec.GroupResult, bool, error) {

	r := s.shards
	set := r.pickSet(dp)
	if set == nil {
		r.fallbacks.Add(1)
		return nil, false, nil
	}
	workers := make([]shard.Worker, len(r.workers))
	for i, w := range r.workers {
		workers[i] = w
	}
	sp := qc.sp.Child("scatter-gather")
	sp.SetStr("table", set.table)
	sp.SetInt("shards", int64(len(workers)))
	m, err := shard.Gather(ctx, workers, &shard.Request{
		Stmt: stmt, Cat: qc.cat, Table: set.table, Slices: set.slices,
		States: states, UseCache: useCache,
		Positive: basePositive,
		Maint:    func(st *sqlparse.Stmt, d *exec.DataPlan) any { return newMaintRec(st, d) },
	})
	if err != nil {
		sp.End()
		return nil, false, err
	}
	r.queries.Add(1)
	hits := 0
	for _, si := range m.Shards {
		hits += si.StateHits
	}
	sp.SetInt("rows", int64(m.Rows))
	sp.SetInt("groups", int64(len(m.Keys)))
	sp.SetInt("state-hits", int64(hits))
	sp.End()
	return &exec.GroupResult{
		NumGroups:  len(m.Keys),
		Keys:       m.Keys,
		KeyNames:   m.KeyNames,
		KeyColumns: m.KeyCols,
		Values:     m.Vals,
		Rows:       m.Rows,
		Kernels:    m.Kernels,
	}, true, nil
}

// routeAppend extends the appended table's shard set to the new version
// and ⊕-maintains the owning shard's cache. Contiguous ranges mean an
// append extends only the *last* shard: earlier shards' slices view a
// stable prefix of copy-on-write arrays, so their fingerprints — and
// every partial cached under them — stay valid untouched. Only the owner
// re-slices (fresh epoch) and delta-maintains its entries, reusing the
// session's migrateEntry machinery against the worker's private cache.
// Caller holds ingestMu; deltaCat is the session's delta overlay (the
// delta rows all belong to the owner's range).
func (s *Session) routeAppend(ctx context.Context, old, newTbl *storage.Table, deltaCat *catalog.Catalog) {
	r := s.shards
	set, ok := r.setFor(old.Name)
	if !ok || set.baseEpoch != old.Epoch {
		// No set (or one for a superseded version): start fresh.
		r.rebuild(newTbl)
		return
	}
	owner := r.n - 1
	oldOwner := set.slices[owner]
	ranges := make([][2]int, r.n)
	copy(ranges, set.ranges)
	ranges[owner] = [2]int{set.ranges[owner][0], newTbl.NumRows()}
	slices := make([]*storage.Table, r.n)
	copy(slices, set.slices)
	no := newTbl.Slice(ranges[owner][0], newTbl.NumRows())
	no.Epoch = storage.NextEpoch()
	no.Seal()
	slices[owner] = no
	r.appendsRouted.Add(1)

	// Owner-shard maintenance: entries computed at the old owner slice
	// (and current versions of every joined table) fold the delta in and
	// move to the new slice's fingerprint; anything else is left alone —
	// other shards' entries are still current, and entries referencing
	// superseded versions are unreachable garbage the LRU will evict.
	postCat := s.cat.Overlay()
	if err := postCat.Register(no); err == nil {
		c := r.workers[owner].StateCache()
		for _, snap := range c.Snapshot() {
			mr, mok := snap.Maint.(*maintRec)
			if !mok || mr == nil {
				if fpReferences(snap.Fingerprint, old.Name, oldOwner.Epoch) {
					c.Remove(snap.Fingerprint)
				}
				continue
			}
			if !s.recCurrent(mr.epochs, old.Name, oldOwner.Epoch) {
				continue
			}
			if _, err := s.migrateEntry(ctx, c, snap, mr, deltaCat, postCat); err != nil {
				c.Remove(snap.Fingerprint)
				continue
			}
			r.entriesMaintained.Add(1)
		}
	}

	r.mu.Lock()
	r.sets[newTbl.Name] = &shardSet{
		table: newTbl.Name, baseEpoch: newTbl.Epoch, ranges: ranges, slices: slices,
	}
	r.mu.Unlock()
}

// explainShards fills ex.Shards with per-worker scatter provenance:
// each shard's slice fingerprint and — in share mode — its private
// cache's probed outcome for every bound state (read-only, mirroring
// the coordinator probe). bound is index-aligned with ex.States.
func (s *Session) explainShards(qc *queryCtx, stmt *sqlparse.Stmt, dp *exec.DataPlan,
	ex *Explain, bound []canonical.State) {

	r := s.shards
	set := r.pickSet(dp)
	if set == nil {
		return
	}
	for i, w := range r.workers {
		ov := qc.cat.Overlay()
		if err := ov.Register(set.slices[i]); err != nil {
			return
		}
		dpi, err := s.eng.PrepareDataIn(ov, stmt)
		if err != nil {
			return
		}
		es := ExplainShard{
			Index: i, Table: set.table,
			Rows:        set.ranges[i][1] - set.ranges[i][0],
			Fingerprint: dpi.Fingerprint,
		}
		if ex.Mode == ModeShare {
			c := w.StateCache()
			for _, st := range bound {
				pos := basePositive(ov, st.Base, dpi.Tables())
				es.Hits = append(es.Hits, c.Probe(dpi.Fingerprint, st, pos).Kind.String())
			}
		}
		ex.Shards = append(ex.Shards, es)
	}
}

// ShardStats returns the session's scatter-gather counters (zero-valued
// when sharding is off).
func (s *Session) ShardStats() ShardStats {
	r := s.shards
	if r == nil {
		return ShardStats{}
	}
	st := ShardStats{
		Shards:            r.n,
		Queries:           r.queries.Load(),
		Fallbacks:         r.fallbacks.Load(),
		AppendsRouted:     r.appendsRouted.Load(),
		EntriesMaintained: r.entriesMaintained.Load(),
	}
	r.mu.RLock()
	st.Tables = len(r.sets)
	r.mu.RUnlock()
	for _, w := range r.workers {
		ws := w.Stats()
		st.Scans += ws.Scans
		st.FullHits += ws.FullHits
		st.StateHits += ws.StateHits
		st.RowsScanned += ws.RowsScanned
	}
	return st
}

// ShardCount returns the configured shard count (0 when sharding is
// off).
func (s *Session) ShardCount() int {
	if s.shards == nil {
		return 0
	}
	return s.shards.n
}

// ShardWorkerCache exposes one worker's private state cache (tests,
// chaos harnesses, EXPLAIN probing).
func (s *Session) ShardWorkerCache(i int) *cache.Cache {
	if s.shards == nil || i < 0 || i >= len(s.shards.workers) {
		return nil
	}
	return s.shards.workers[i].StateCache()
}

// ClearShardWorker drops a single worker's cached partials, simulating
// one shard rebooting while its peers stay warm: the next scatter
// rescans only that worker's row range.
func (s *Session) ClearShardWorker(i int) {
	if s.shards == nil || i < 0 || i >= len(s.shards.workers) {
		return
	}
	s.shards.workers[i].ClearCache()
}

// ClearShardCaches drops every worker's cached partials (the per-shard
// analogue of ClearCache, which only clears the session cache).
func (s *Session) ClearShardCaches() {
	if s.shards == nil {
		return
	}
	for _, w := range s.shards.workers {
		w.ClearCache()
	}
}
