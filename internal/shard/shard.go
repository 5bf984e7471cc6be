package shard

import (
	"context"
	"fmt"
	"sync"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/errs"
	"sudaf/internal/faultinject"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// Request bundles one scatter-gather execution: the query, its pinned
// catalog, the per-shard slice versions of the sharded table, and the
// canonical states to evaluate.
type Request struct {
	Stmt   *sqlparse.Stmt
	Cat    *catalog.Catalog
	Slices []*storage.Table // one per worker, index-aligned
	States []canonical.State
}

// Merged is a gathered result: the ⊕-merge of every worker's partial.
// Vals[i] holds state States[i] of the request, aligned with Keys.
type Merged struct {
	Keys     []cache.GroupKey
	KeyNames []string
	KeyCols  []*storage.Column
	Vals     [][]float64
	Rows     int
	Kernels  []string
}

// Gather scatters the request across the workers (one goroutine each),
// waits for every worker to finish, and ⊕-merges the partials in shard
// order. Failure semantics are all-or-nothing: the first scan error or
// panic cancels the siblings, every goroutine is awaited (no leaks), and
// the caller sees exactly one error wrapping errs.ErrShard and the
// underlying cause — never a partial result.
func Gather(ctx context.Context, workers []Worker, req *Request) (m *Merged, err error) {
	// Coordinator-side panics (merge, post-merge) get the same typed
	// error as worker-side ones: the caller always sees one ErrShard,
	// never an unwound stack with goroutines still draining.
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("%w: gather panic: %v", errs.ErrShard, r)
		}
	}()
	if len(workers) == 0 || len(workers) != len(req.Slices) {
		return nil, fmt.Errorf("%w: %d workers for %d slices", errs.ErrShard, len(workers), len(req.Slices))
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	parts := make([]*Partial, len(workers))
	var (
		mu      sync.Mutex
		firstEl int
		firstEr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstEr == nil {
			firstEl, firstEr = i, err
			cancel()
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w Worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(i, fmt.Errorf("scan panic: %v", r))
				}
			}()
			p, err := w.Scan(gctx, &ScanRequest{
				Stmt: req.Stmt, Cat: req.Cat, Slice: req.Slices[i], States: req.States,
			})
			if err != nil {
				fail(i, err)
				return
			}
			parts[i] = p
		}(i, w)
	}
	wg.Wait()
	if firstEr != nil {
		return nil, fmt.Errorf("%w: shard %d: %w", errs.ErrShard, firstEl, firstEr)
	}
	m, err = MergePartials(req.States, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: merge: %w", errs.ErrShard, err)
	}
	if err := faultinject.Hit(faultinject.PointShardStall); err != nil {
		return nil, fmt.Errorf("%w: gather: %w", errs.ErrShard, err)
	}
	return m, nil
}

// MergePartials folds the workers' partials in shard order with the
// delta-merge machinery of incremental ingestion: the union group set
// keeps earlier shards' group order with new groups appended in
// appearance order (which, for contiguous row-range shards, is exactly
// the single-engine first-appearance order) and absent groups pad with
// the state's ⊕-identity. fp-exact: the merge performs the same ⊕
// reductions, in the same order, as the engine's own morsel-merge over
// one table.
func MergePartials(states []canonical.State, parts []*Partial) (*Merged, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("no partials")
	}
	seen := make(map[string]bool, len(states))
	for _, st := range states {
		if k := st.Key(); seen[k] {
			return nil, fmt.Errorf("duplicate state %s", k)
		} else {
			seen[k] = true
		}
	}
	m := &Merged{Vals: make([][]float64, len(states))}
	kernels := map[string]bool{} // dedup; m.Kernels keeps first-shard-order

	p0 := parts[0]
	gt := cache.NewGroupTable("shard-merge", p0.KeyNames, p0.Keys, p0.KeyCols)
	for i, st := range states {
		if err := gt.AddState(&cache.CachedState{State: st, Vals: p0.Vals[i]}); err != nil {
			return nil, err
		}
	}
	note := func(p *Partial) {
		m.Rows += p.Rows
		for _, k := range p.Kernels {
			if !kernels[k] {
				kernels[k] = true
				m.Kernels = append(m.Kernels, k)
			}
		}
	}
	note(p0)

	for _, p := range parts[1:] {
		if err := faultinject.Hit(faultinject.PointShardMerge); err != nil {
			return nil, err
		}
		deltaVals := make(map[string][]float64, len(states))
		for i, st := range states {
			deltaVals[st.Key()] = p.Vals[i]
		}
		next, err := cache.MergeDelta(gt.SnapshotEntry(), "shard-merge", p.Keys, p.KeyCols, deltaVals, nil, nil)
		if err != nil {
			return nil, err
		}
		gt = next
		note(p)
	}

	m.Keys, m.KeyNames, m.KeyCols = gt.Keys, gt.KeyNames, gt.KeyCols
	for i, st := range states {
		cs, ok := gt.Exact(st.Key())
		if !ok {
			return nil, fmt.Errorf("state %s lost in merge", st.Key())
		}
		m.Vals[i] = cs.Vals
	}
	return m, nil
}
