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
// node abstraction over the HTTP serving layer. Workers are stateless
// scanners: they keep no state cache. Sharing happens once, at the
// coordinator, against the session's one state cache — a scatter carries
// only the states that cache missed, and the merged partials are stored
// back there.
package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/exec"
	"sudaf/internal/faultinject"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
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
	// the sharded table.
	Slice *storage.Table
	// States are the canonical aggregation states to evaluate, in the
	// coordinator's output order. Keys must be distinct.
	States []canonical.State
}

// Partial is one worker's contribution: per-group state values over its
// slice, in the worker's group order. Vals[i] is aligned with Keys and
// holds state States[i] of the originating request.
type Partial struct {
	Keys     []cache.GroupKey
	KeyNames []string
	KeyCols  []*storage.Column
	Vals     [][]float64
	Rows     int // base rows scanned
	Kernels  []string
}

// WorkerStats are one worker's lifetime counters.
type WorkerStats struct {
	Scans       int64 // scatter scans executed
	RowsScanned int64 // base rows read by those scans
}

// Worker is one shard's execution endpoint. InProc implements it in
// process; a future remote implementation can proxy it over the serving
// layer.
type Worker interface {
	// Scan evaluates the request's states over the worker's slice.
	Scan(ctx context.Context, req *ScanRequest) (*Partial, error)
}

// InProc is the in-process Worker: it scans its slice with the session's
// exec engine (and therefore its worker-token pool).
type InProc struct {
	eng *exec.Engine

	scans       atomic.Int64
	rowsScanned atomic.Int64
}

// NewInProc builds an in-process worker around the given engine.
func NewInProc(eng *exec.Engine) *InProc {
	return &InProc{eng: eng}
}

// Stats returns the worker's lifetime counters.
func (w *InProc) Stats() WorkerStats {
	return WorkerStats{Scans: w.scans.Load(), RowsScanned: w.rowsScanned.Load()}
}

// Scan evaluates req.States over the worker's slice: it plans the query
// against an overlay catalog that shadows the sharded table with the
// slice and runs every state through one RunSpecs scan.
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
	// Distinct keys make registry index i the request's state i.
	reg := exec.NewTaskRegistry()
	for _, st := range req.States {
		st := st
		reg.Add(st.Key(), func(b exec.Binder) (exec.Task, error) {
			return exec.NewStateTask(st, b)
		})
	}
	gr, err := w.eng.RunSpecs(ctx, dp, reg)
	if err != nil {
		return nil, err
	}
	w.rowsScanned.Add(int64(gr.Rows))
	return &Partial{
		Keys:     gr.Keys,
		KeyNames: gr.KeyNames,
		KeyCols:  gr.KeyColumns,
		Vals:     gr.Values,
		Rows:     gr.Rows,
		Kernels:  gr.Kernels,
	}, nil
}
