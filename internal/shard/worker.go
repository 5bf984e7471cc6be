// Package shard implements scatter-gather aggregation over a table
// partitioned into contiguous row-range shards. The paper's canonical
// decomposition makes this almost free: every SUDAF reduces to
// commutative-monoid states (F, ⊕, T), so the partial F-states computed
// per shard ⊕-merge into exactly the single-engine answer and the
// terminating function T runs once at the coordinator.
//
// The package is deliberately engine-agnostic at the seams: the
// coordinator (Gather) talks to shards through the Worker interface, so
// the in-process InProc worker used today can later be replaced by a
// node abstraction over the HTTP serving layer. Each worker owns its own
// state cache, which keeps Theorem 4.1 sharing local to the shard: a
// warm shard serves its partial from cache (zero rows scanned) while a
// cold one recomputes only its own partition.
package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/faultinject"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
	"sudaf/internal/symbolic"
)

// ScanRequest asks one worker for its partial aggregation states over
// its slice of the sharded table.
type ScanRequest struct {
	// Stmt is the parsed query (FROM/WHERE/GROUP BY shape the scan; the
	// select list and ORDER BY/LIMIT are coordinator business).
	Stmt *sqlparse.Stmt
	// Cat is the query's pinned catalog snapshot. The worker overlays it
	// with Slice under the sharded table's name, so every other table
	// resolves at exactly the version the coordinator pinned.
	Cat *catalog.Catalog
	// Slice is this worker's sealed, epoch-stamped row-range version of
	// the sharded table. Its epoch is stable across queries, which is
	// what makes per-shard cache fingerprints reusable.
	Slice *storage.Table
	// States are the canonical aggregation states to evaluate, in the
	// coordinator's output order. Keys must be distinct.
	States []canonical.State
	// UseCache consults and fills the worker's state cache (Share mode).
	UseCache bool
	// Positive reports whether a state's base expression is provably
	// positive over the catalog's data (the engine's static positivity
	// check; per-shard positivity AND-merges into whole-table positivity).
	Positive func(cat *catalog.Catalog, base expr.Node, tables []string) bool
	// Maint builds the maintenance record stored with a cached partial
	// so the append path can ⊕-maintain it (nil-able).
	Maint func(stmt *sqlparse.Stmt, dp *exec.DataPlan) any
}

// Partial is one worker's contribution: per-group state values over its
// slice, in the worker's group order. Vals[i] is aligned with Keys and
// holds state States[i] of the originating request.
type Partial struct {
	Fingerprint string
	Keys        []cache.GroupKey
	KeyNames    []string
	KeyCols     []*storage.Column
	Vals        [][]float64
	Pos         []bool // per state: base provably positive on this shard
	Rows        int    // base rows scanned (0 on a full cache hit)
	Kernels     []string
	StateHits   int  // states served from this worker's cache
	FromCache   bool // entire partial served from cache, no scan
}

// WorkerStats are one worker's lifetime counters.
type WorkerStats struct {
	Scans       int64 // scatter scans executed (including full cache hits)
	FullHits    int64 // scans answered entirely from the worker's cache
	StateHits   int64 // individual states served from the worker's cache
	RowsScanned int64 // base rows read by partial recomputations
}

// Worker is one shard's execution endpoint. InProc implements it in
// process; a future remote implementation can proxy it over the serving
// layer.
type Worker interface {
	// Scan evaluates the request's states over the worker's slice.
	Scan(ctx context.Context, req *ScanRequest) (*Partial, error)
	// StateCache exposes the worker's private state cache (maintenance,
	// EXPLAIN probing, tests).
	StateCache() *cache.Cache
	// Stats returns lifetime counters.
	Stats() WorkerStats
	// ClearCache drops the worker's cached partials.
	ClearCache()
}

// InProc is the in-process Worker: it shares the session's exec engine
// (and therefore its worker-token pool) but owns a private striped state
// cache sized to its share of the session budget.
type InProc struct {
	eng        *exec.Engine
	cache      atomic.Pointer[cache.Cache]
	cacheBytes int64
	space      *symbolic.Space

	scans       atomic.Int64
	fullHits    atomic.Int64
	stateHits   atomic.Int64
	rowsScanned atomic.Int64
}

// NewInProc builds an in-process worker around the given engine with a
// private cache of cacheBytes capacity (≤0 picks the cache default).
func NewInProc(eng *exec.Engine, cacheBytes int64, space *symbolic.Space) *InProc {
	w := &InProc{eng: eng, cacheBytes: cacheBytes, space: space}
	w.cache.Store(cache.New(cacheBytes, space))
	return w
}

// StateCache returns the worker's private cache.
func (w *InProc) StateCache() *cache.Cache { return w.cache.Load() }

// ClearCache drops every cached partial by swapping in a fresh cache
// (in-flight scans keep the snapshot they started with, mirroring the
// session cache's ClearCache contract).
func (w *InProc) ClearCache() {
	w.cache.Store(cache.New(w.cacheBytes, w.space))
}

// Stats returns the worker's lifetime counters.
func (w *InProc) Stats() WorkerStats {
	return WorkerStats{
		Scans:       w.scans.Load(),
		FullHits:    w.fullHits.Load(),
		StateHits:   w.stateHits.Load(),
		RowsScanned: w.rowsScanned.Load(),
	}
}

// Scan evaluates req.States over the worker's slice: it plans the query
// against an overlay catalog that shadows the sharded table with the
// slice, serves whatever states its cache already holds (exact, Theorem
// 4.1 rewrite, or sign-split), recomputes only the misses in one scan,
// and — in Share mode — stores the completed partial back, keyed by the
// slice's own epoch-versioned fingerprint.
func (w *InProc) Scan(ctx context.Context, req *ScanRequest) (*Partial, error) {
	if err := faultinject.Hit(faultinject.PointShardScan); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w.scans.Add(1)
	ov := req.Cat.Overlay()
	if err := ov.Register(req.Slice); err != nil {
		return nil, fmt.Errorf("register slice: %w", err)
	}
	dp, err := w.eng.PrepareDataIn(ov, req.Stmt)
	if err != nil {
		return nil, err
	}
	n := len(req.States)
	vals := make([][]float64, n)
	pos := make([]bool, n)
	for i, st := range req.States {
		if req.Positive != nil {
			pos[i] = req.Positive(ov, st.Base, dp.Tables())
		}
	}

	c := w.cache.Load()
	var entry *cache.GroupTable
	hits := 0
	if req.UseCache {
		look := c.LookupAll(dp.Fingerprint, req.States, pos, nil, nil, nil)
		entry, vals = look.Entry, look.Vals // cached states, in entry order
		hits = look.Exact + look.Shared + look.Sign
	}
	p := &Partial{Fingerprint: dp.Fingerprint, Pos: pos, StateHits: hits}

	if hits == n && entry != nil {
		// Entire partial served from cache: no scan, entry group order.
		p.Keys, p.KeyNames, p.KeyCols = entry.Keys, entry.KeyNames, entry.KeyCols
		p.Vals = vals
		p.FromCache = true
		w.fullHits.Add(1)
		w.stateHits.Add(int64(hits))
		return p, nil
	}

	// Compute the misses in one scan, then align the cached states to the
	// scan's group order. Any misalignment (a corrupted or torn entry)
	// falls back to recomputing everything — never a wrong partial.
	gr, aligned, err := w.compute(ctx, dp, req.States, vals, entry)
	if err != nil {
		return nil, err
	}
	if !aligned {
		hits = 0
		for i := range vals {
			vals[i] = nil
		}
		gr, _, err = w.compute(ctx, dp, req.States, vals, nil)
		if err != nil {
			return nil, err
		}
	}
	w.stateHits.Add(int64(hits))
	p.StateHits = hits
	w.rowsScanned.Add(int64(gr.Rows))
	p.Keys, p.KeyNames, p.KeyCols = gr.Keys, gr.KeyNames, gr.KeyColumns
	p.Rows, p.Kernels = gr.Rows, gr.Kernels
	p.Vals = make([][]float64, n)
	for i := range req.States {
		p.Vals[i] = vals[i]
	}

	if req.UseCache {
		gt := cache.NewGroupTable(dp.Fingerprint, gr.KeyNames, gr.Keys, gr.KeyColumns)
		if req.Maint != nil {
			gt.Maint = req.Maint(req.Stmt, dp)
		}
		fresh := make([]*cache.CachedState, n)
		for i, st := range req.States {
			fresh[i] = &cache.CachedState{State: st, Vals: p.Vals[i], PositiveInput: pos[i]}
		}
		c.StoreAll(gt, fresh)
	}
	return p, nil
}

// compute runs the states whose vals slot is still nil through one
// RunSpecs scan and fills every slot in the scan's group order. Cached
// slots (vals[i] != nil, in entry order) are realigned against gr's
// keys; aligned reports whether that realignment was possible.
func (w *InProc) compute(ctx context.Context, dp *exec.DataPlan, states []canonical.State,
	vals [][]float64, entry *cache.GroupTable) (*exec.GroupResult, bool, error) {

	reg := exec.NewTaskRegistry()
	idx := make([]int, len(states))
	for i, st := range states {
		if vals[i] != nil {
			idx[i] = -1
			continue
		}
		st := st
		idx[i] = reg.Add(st.Key(), func(b exec.Binder) (exec.Task, error) {
			return exec.NewStateTask(st, b)
		})
	}
	gr, err := w.eng.RunSpecs(ctx, dp, reg)
	if err != nil {
		return nil, false, err
	}
	for i := range states {
		if idx[i] >= 0 {
			vals[i] = gr.Values[idx[i]]
			continue
		}
		// Realign the cached vector (entry group order) to gr group order.
		if entry == nil || entry.NumGroups() != gr.NumGroups {
			return gr, false, nil
		}
		out := make([]float64, gr.NumGroups)
		for g, k := range gr.Keys {
			j, ok := entry.IndexOf(k)
			if !ok {
				return gr, false, nil
			}
			out[g] = vals[i][j]
		}
		vals[i] = out
	}
	return gr, true, nil
}
