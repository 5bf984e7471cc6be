package core

import (
	"context"
	"fmt"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/exec"
	"sudaf/internal/faultinject"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
	"sudaf/internal/window"
)

// This file holds what is genuinely different about windowed statements
// — those carrying an OVER (ROWS|EPOCHS n PRECEDING|TUMBLING) clause.
// They are planned by queryPipeline on the ordinary planState and share
// executePlan's assembly, cache-store and accounting tail; what differs
// is the grouping structure (the frame replaces GROUP BY), the scan (a
// single chronological pass — the two-stacks ⊕-fold needs rows in order,
// not morsel-parallel) and what non-aggregate select-list names mean (table
// columns read at each frame's emit row: exec.BuildWindowOutput). Share-mode caching keys on the
// frame-qualified data key (DataKey.Framed), so only queries with the
// same frame shape exchange per-emission state vectors — and
// Theorem 4.1 still applies: two different terminating functions over
// the same frame share the same cached states.
//
// The continuous Subscribe path (subscribe.go) drives the same plan
// state, frames and fold driver incrementally.

// frame is one emission's row range [lo, hi); hi-1 is the emit row,
// where non-aggregate projection columns are read.
type frame struct{ lo, hi int }

// frameEndingAt returns the ROWS-unit frame whose emit row is r, if one
// ends there. Sliding frames end at every row — standard SQL "ROWS k
// PRECEDING" semantics, partial while the window fills. Tumbling
// buckets are aligned to row 0 and end at every Size-th row.
func frameEndingAt(spec *sqlparse.WindowSpec, r int) (frame, bool) {
	if spec.Sliding {
		lo := r - spec.N
		if lo < 0 {
			lo = 0
		}
		return frame{lo, r + 1}, true
	}
	if b := spec.Size(); (r+1)%b == 0 {
		return frame{r + 1 - b, r + 1}, true
	}
	return frame{}, false
}

// rowsFrames lists the ROWS-unit frames whose emit row lies in [lo, hi),
// in emission order: what a subscription emits for an append of those
// rows.
func rowsFrames(spec *sqlparse.WindowSpec, lo, hi int) []frame {
	var out []frame
	for r := lo; r < hi; r++ {
		if fr, ok := frameEndingAt(spec, r); ok {
			out = append(out, fr)
		}
	}
	return out
}

// trailingFrame is the still-open tumbling bucket of an n-row table. A
// one-shot query emits it (the table ends there); a subscription does
// not (it is still growing).
func trailingFrame(spec *sqlparse.WindowSpec, n int) (frame, bool) {
	if spec.Sliding || n%spec.Size() == 0 {
		return frame{}, false
	}
	return frame{n - n%spec.Size(), n}, true
}

// ---- resolve-phase rules (no-ops for unwindowed statements) ----

// ruleWindowScope pins the v1 windowed-query surface: one base table,
// aggregate projections only, frame-ordered output.
func ruleWindowScope(_ context.Context, ps *planState) error {
	spec := ps.stmt.Window
	if spec == nil {
		return nil
	}
	if spec.Unit == sqlparse.WindowEpochs && !ps.continuous {
		return fmt.Errorf("EPOCHS windows require a live stream: use Subscribe (each Append batch is one epoch tick)")
	}
	if len(ps.stmt.From) != 1 || ps.stmt.From[0].Sub != nil {
		return fmt.Errorf("windowed queries read a single base table")
	}
	if ps.stmt.Where != nil {
		return fmt.Errorf("windowed queries do not support WHERE")
	}
	if len(ps.stmt.GroupBy) > 0 {
		return fmt.Errorf("windowed queries do not support GROUP BY (the frame is the group)")
	}
	if len(ps.stmt.OrderBy) > 0 || ps.stmt.Limit >= 0 {
		return fmt.Errorf("windowed queries do not support ORDER BY/LIMIT (emissions arrive in frame order)")
	}
	if !ps.s.hasAggregates(ps.stmt) {
		return fmt.Errorf("OVER requires at least one aggregate call in the select list")
	}
	return nil
}

// ruleWindowFrames pins the base table version the data plan resolved
// and, for a one-shot query, enumerates its emission frames — the plan's
// group structure. A subscription derives frames per append instead.
func ruleWindowFrames(_ context.Context, ps *planState) error {
	spec := ps.stmt.Window
	if spec == nil {
		return nil
	}
	tbl, err := ps.qc.cat.Table(ps.stmt.From[0].Name)
	if err != nil {
		return err
	}
	ps.tbl = tbl
	if !ps.continuous {
		n := tbl.NumRows()
		ps.frames = rowsFrames(spec, 0, n)
		if fr, ok := trailingFrame(spec, n); ok {
			ps.frames = append(ps.frames, fr)
		}
	}
	return nil
}

// ---- execution ----

// windowScan is a windowed statement's scan. Baseline mode recomputes
// every frame from scratch with the calls' native tasks; the SUDAF modes
// make one chronological pass pushing translated values through a
// two-stacks ⊕-fold per registered state task (missing states and their
// sign-split companions). The result is shaped like any other scan —
// one "group" per emission, values indexed by task — so executePlan's
// common tail assembles, caches and finishes it; in share mode the
// emissions are keyed by emit row, which is what the cached entry's
// group structure is.
func (s *Session) windowScan(ctx context.Context, ps *planState) (*exec.GroupResult, error) {
	n := ps.tbl.NumRows()
	gr := &exec.GroupResult{NumGroups: len(ps.frames), Rows: n}
	if ps.mode == ModeBaseline {
		ssp := ps.qc.sp.Child("window-recompute")
		vals, err := windowTaskValues(ctx, ps.reg, ps.tbl, ps.frames)
		if err != nil {
			return nil, err
		}
		ssp.SetInt("frames", int64(len(ps.frames)))
		ssp.End()
		gr.Values = vals // finishers index by task position
		return gr, nil
	}
	ssp := ps.qc.sp.Child("window-fold")
	states, ok := ps.taskStates()
	if !ok {
		return nil, fmt.Errorf("window plan: task registry not covered by canonical states")
	}
	// One-shot execution is the subscription driver fed the single note
	// [0, n), plus the trailing partial bucket a finished table emits.
	fd := newFoldDriver(ps.stmt.Window, states)
	vals, err := fd.rows(ctx, ps.tbl, 0, n)
	if err != nil {
		return nil, err
	}
	if _, ok := trailingFrame(ps.stmt.Window, n); ok {
		if err := fd.emit(vals, len(ps.frames)-1); err != nil {
			return nil, err
		}
	}
	fd.flushStats(s)
	ssp.SetInt("frames", int64(len(ps.frames)))
	ssp.SetInt("states", int64(len(ps.missing)))
	ssp.End()
	gr.Values = vals
	if ps.mode == ModeShare {
		gr.KeyNames = []string{"__row"}
		gr.Keys = make([]cache.GroupKey, len(ps.frames))
		kc := storage.NewColumn("__row", storage.KindInt)
		for e, fr := range ps.frames {
			gr.Keys[e] = cache.GroupKey{int64(fr.hi - 1), 0}
			kc.AppendInt(int64(fr.hi - 1))
		}
		gr.KeyColumns = []*storage.Column{kc}
	}
	return gr, nil
}

// foldDriver is the chronological two-stacks executor: one persistent
// ⊕-fold per canonical state, fed rows in order. A one-shot windowed
// query drives it once over the whole table; a subscription keeps it
// across appends (the whole point of the two-stacks structure — sliding
// frames evict incrementally, nothing is refolded).
type foldDriver struct {
	spec   *sqlparse.WindowSpec
	states []canonical.State
	folds  []*window.Fold
	// prev* remember the folds' lifetime counters so each flushStats adds
	// only its delta to the session metrics.
	prevEvicts, prevFast, prevRefolds int64
}

func newFoldDriver(spec *sqlparse.WindowSpec, states []canonical.State) *foldDriver {
	fd := &foldDriver{spec: spec, states: states, folds: make([]*window.Fold, len(states))}
	for i, st := range states {
		fd.folds[i] = window.New(st, exec.MorselRows)
	}
	return fd
}

// valuers compiles the per-row translated-value accessors F(base(row))
// against a pinned table version (versions share their row prefix, so
// the persistent folds stay consistent with fresh accessors).
func (fd *foldDriver) valuers(tbl *storage.Table) ([]exec.Accessor, error) {
	b := exec.NewTableBinder(tbl)
	out := make([]exec.Accessor, len(fd.states))
	for i, st := range fd.states {
		v, err := exec.StateValuer(st, b)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// rows is the ROWS-unit fold loop: push rows [lo, hi) of tbl in order,
// evict the row a sliding frame just outgrew, and snapshot every state's
// value at each row a frame ends on (rowsFrames(spec, lo, hi) names
// those frames). It returns one per-emission vector per state. On
// failure the vectors hold the emissions completed before it.
func (fd *foldDriver) rows(ctx context.Context, tbl *storage.Table, lo, hi int) ([][]float64, error) {
	vals := make([][]float64, len(fd.folds))
	emits := hi - lo
	if !fd.spec.Sliding {
		emits = emits/fd.spec.Size() + 1
	}
	for i := range vals {
		vals[i] = make([]float64, 0, emits)
	}
	valuers, err := fd.valuers(tbl)
	if err != nil {
		return vals, err
	}
	e := 0
	for r := lo; r < hi; r++ {
		if (r-lo)%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return vals, err
			}
		}
		for i, f := range fd.folds {
			f.Push(valuers[i](int32(r)))
		}
		if fd.spec.Sliding && r > fd.spec.N {
			if err := faultinject.Hit(faultinject.PointWindowEvict); err != nil {
				return vals, fmt.Errorf("window evict at row %d: %w", r, err)
			}
			for _, f := range fd.folds {
				f.Evict()
			}
		}
		if _, ok := frameEndingAt(fd.spec, r); !ok {
			continue
		}
		if err := fd.emit(vals, e); err != nil {
			return vals, err
		}
		e++
	}
	return vals, nil
}

// emit appends every fold's current value to its vector in vals as
// emission e; a tumbling frame then starts its next bucket empty.
func (fd *foldDriver) emit(vals [][]float64, e int) error {
	if err := faultinject.Hit(faultinject.PointWindowEmit); err != nil {
		return fmt.Errorf("window emit %d: %w", e, err)
	}
	for i, f := range fd.folds {
		vals[i] = append(vals[i], f.Value())
		if !fd.spec.Sliding {
			f.Reset()
		}
	}
	return nil
}

// flushStats adds the fold counters accrued since the last flush to the
// session's window metrics.
func (fd *foldDriver) flushStats(s *Session) {
	var ev, fa, re int64
	for _, f := range fd.folds {
		e, a, r := f.Stats()
		ev += e
		fa += a
		re += r
	}
	s.windowRowsEvicted.Add(ev - fd.prevEvicts)
	s.windowFastFolds.Add(fa - fd.prevFast)
	s.windowRefolds.Add(re - fd.prevRefolds)
	fd.prevEvicts, fd.prevFast, fd.prevRefolds = ev, fa, re
}

// windowTaskValues is the baseline window executor (shared with
// baseline subscriptions): every frame recomputed from scratch by the
// calls' native tasks, chunked exactly like a cold morselized scan
// whose row 0 is the frame start — which is what pins windowed baseline
// output bit-identical to a cold query over the same row range.
func windowTaskValues(ctx context.Context, reg *exec.TaskRegistry, tbl *storage.Table, frames []frame) ([][]float64, error) {
	b := exec.NewTableBinder(tbl)
	tasks := make([]exec.Task, reg.Len())
	for i := 0; i < reg.Len(); i++ {
		t, err := reg.Spec(i)(b)
		if err != nil {
			return nil, err
		}
		tasks[i] = t
	}
	zeros := make([]int32, exec.MorselRows)
	remap := []int32{0}
	vals := make([][]float64, len(tasks))
	for i := range vals {
		vals[i] = make([]float64, len(frames))
	}
	for e, fr := range frames {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultinject.Hit(faultinject.PointWindowEmit); err != nil {
			return nil, fmt.Errorf("window emit %d: %w", e, err)
		}
		for ti, task := range tasks {
			mp := task.NewPartial(1)
			for clo := fr.lo; clo < fr.hi; clo += exec.MorselRows {
				chi := clo + exec.MorselRows
				if chi > fr.hi {
					chi = fr.hi
				}
				pc := task.NewPartial(1)
				task.Accumulate(pc, clo, chi, zeros[:chi-clo])
				task.Merge(mp, pc, remap)
			}
			vals[ti][e] = task.Finalize(mp, 1)[0]
		}
	}
	return vals, nil
}

// emitRows lists each frame's emit row — its last row, where windowed
// output reads non-aggregate columns (exec.BuildWindowOutput).
func emitRows(frames []frame) []int {
	rows := make([]int, len(frames))
	for e, fr := range frames {
		rows[e] = fr.hi - 1
	}
	return rows
}
