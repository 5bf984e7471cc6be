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
// A frame list is the one description of what a windowed statement
// emits: a one-shot query's is ps.frames, a subscription's is what each
// note completes (Subscription.frames). windowValues values any list,
// by recomputing each frame (Baseline) or through the one fold loop,
// foldDriver.frames, whose folds a subscription keeps across notes.

// frame is one emission's row range [lo, hi); hi-1 is the emit row,
// where non-aggregate projection columns are read.
type frame struct{ lo, hi int }

// rowsFrames lists the ROWS-unit frames whose emit row lies in [lo, hi),
// in emission order: what a subscription emits for an append of those
// rows. Sliding frames end at every row — standard SQL "ROWS k
// PRECEDING" semantics, partial while the window fills. Tumbling
// buckets are aligned to row 0 and end at every Size-th row.
func rowsFrames(spec *sqlparse.WindowSpec, lo, hi int) []frame {
	var out []frame
	for r := lo; r < hi; r++ {
		if spec.Sliding {
			out = append(out, frame{max(0, r-spec.N), r + 1})
		} else if b := spec.Size(); (r+1)%b == 0 {
			out = append(out, frame{r + 1 - b, r + 1})
		}
	}
	return out
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
		// The table ends here, so its still-open tumbling bucket emits too.
		if b := spec.Size(); !spec.Sliding && n%b != 0 {
			ps.frames = append(ps.frames, frame{n - n%b, n})
		}
	}
	return nil
}

// ---- execution ----

// windowScan is a windowed statement's scan: windowValues over the
// plan's frames, with Baseline's native tasks or a fold per registered
// state task (missing states and their sign-split companions). The result
// is shaped like any other scan — one "group" per emission, values
// indexed by task — so executePlan's common tail assembles, caches and
// finishes it; in share mode the emissions are keyed by emit row, which
// is what the cached entry's group structure is.
func (s *Session) windowScan(ctx context.Context, ps *planState) (*exec.GroupResult, error) {
	var fd *foldDriver
	span := "window-recompute"
	if ps.mode != ModeBaseline {
		states, ok := ps.taskStates()
		if !ok {
			return nil, fmt.Errorf("window plan: task registry not covered by canonical states")
		}
		fd = newFoldDriver(ps.stmt.Window, states)
		span = "window-fold"
	}
	ssp := ps.qc.sp.Child(span)
	vals, err := s.windowValues(ctx, ps.reg, fd, ps.tbl, ps.frames)
	if err != nil {
		return nil, err
	}
	ssp.SetInt("frames", int64(len(ps.frames)))
	if fd != nil {
		ssp.SetInt("states", int64(len(ps.missing)))
	}
	ssp.End()
	gr := &exec.GroupResult{NumGroups: len(ps.frames), Rows: ps.tbl.NumRows(), Values: vals}
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

// windowValues values a list of frames: one vector per registered task,
// one entry per frame in order. Baseline (fd nil) recomputes every frame
// from scratch with the calls' native tasks; the SUDAF modes run fd's
// fold loop and add its counters to the session metrics. On failure the
// vectors hold the frames completed before it.
func (s *Session) windowValues(ctx context.Context, reg *exec.TaskRegistry, fd *foldDriver, tbl *storage.Table, frames []frame) ([][]float64, error) {
	if fd == nil {
		return windowTaskValues(ctx, reg, tbl, frames)
	}
	vals, err := fd.frames(ctx, tbl, frames)
	fd.flushStats(s)
	return vals, err
}

// taskStates reconstructs the task registry's state list in task order
// from the plan's missing slots and sign-split companions: the states a
// windowed scan or subscription folds. ok is false when any registry index is not
// covered by a canonical state (never the case for plans built by the
// standard pipeline — this is a bail-out, not an error path).
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

// foldDriver is the chronological two-stacks executor: one persistent
// ⊕-fold per canonical state, fed rows in order. A one-shot windowed
// query drives it once over its frames; a subscription keeps it across
// notes (the whole point of the two-stacks structure — sliding frames
// evict incrementally, nothing is refolded).
type foldDriver struct {
	spec   *sqlparse.WindowSpec
	states []canonical.State
	folds  []*window.Fold
	// lo, hi bound the rows [lo, hi) the folds hold.
	lo, hi int
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

// frames is the one fold loop. For each frame in order: a tumbling frame
// empties the folds and starts at its first row; rows of tbl are pushed
// up to the frame's end; a sliding frame evicts the rows below its start;
// then every state's value is snapshot as the frame's emission. It
// returns one per-emission vector per state; on failure they hold the
// emissions completed before it.
func (fd *foldDriver) frames(ctx context.Context, tbl *storage.Table, frames []frame) ([][]float64, error) {
	vals := make([][]float64, len(fd.folds))
	for i := range vals {
		vals[i] = make([]float64, 0, len(frames))
	}
	valuers, err := fd.valuers(tbl)
	if err != nil {
		return vals, err
	}
	for e, fr := range frames {
		if !fd.spec.Sliding {
			for _, f := range fd.folds {
				f.Reset()
			}
			fd.lo, fd.hi = fr.lo, fr.lo
		}
		for ; fd.hi < fr.hi; fd.hi++ {
			if fd.hi%4096 == 0 {
				if err := ctx.Err(); err != nil {
					return vals, err
				}
			}
			for i, f := range fd.folds {
				f.Push(valuers[i](int32(fd.hi)))
			}
		}
		if fd.lo < fr.lo {
			if err := faultinject.Hit(faultinject.PointWindowEvict); err != nil {
				return vals, fmt.Errorf("window evict rows [%d,%d): %w", fd.lo, fr.lo, err)
			}
			for ; fd.lo < fr.lo; fd.lo++ {
				for _, f := range fd.folds {
					f.Evict()
				}
			}
		}
		if err := faultinject.Hit(faultinject.PointWindowEmit); err != nil {
			return vals, fmt.Errorf("window emit %d: %w", e, err)
		}
		for i, f := range fd.folds {
			vals[i] = append(vals[i], f.Value())
		}
	}
	return vals, nil
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

// windowTaskValues is the baseline window executor: every frame
// recomputed from scratch by the calls' native tasks, through the
// Accumulate a scan runs, chunked exactly like a cold morselized keyless
// scan whose row 0 is the frame start — MorselRows-row partials ⊕-merged
// in order, each folded a BatchSize batch at a time — which is what pins
// windowed baseline output bit-identical to a cold query over the same
// row range. On failure the vectors hold the frames completed before it.
func windowTaskValues(ctx context.Context, reg *exec.TaskRegistry, tbl *storage.Table, frames []frame) ([][]float64, error) {
	b := exec.NewTableBinder(tbl)
	tasks := make([]exec.Task, reg.Len())
	scratch := make([]exec.Scratch, reg.Len())
	for i := 0; i < reg.Len(); i++ {
		t, err := reg.Spec(i)(b)
		if err != nil {
			return nil, err
		}
		tasks[i], scratch[i] = t, t.NewScratch()
	}
	remap := []int32{0}
	vals := make([][]float64, len(tasks))
	for i := range vals {
		vals[i] = make([]float64, 0, len(frames))
	}
	for e, fr := range frames {
		if err := ctx.Err(); err != nil {
			return vals, err
		}
		if err := faultinject.Hit(faultinject.PointWindowEmit); err != nil {
			return vals, fmt.Errorf("window emit %d: %w", e, err)
		}
		for ti, task := range tasks {
			mp := task.NewPartial(1)
			for clo := fr.lo; clo < fr.hi; clo += exec.MorselRows {
				chi := min(clo+exec.MorselRows, fr.hi)
				pc := task.NewPartial(1)
				for blo := clo; blo < chi; blo += exec.BatchSize {
					task.Accumulate(scratch[ti], pc, blo, min(blo+exec.BatchSize, chi), exec.GroupIndex{})
				}
				task.Merge(mp, pc, remap)
			}
			vals[ti] = append(vals[ti], task.Finalize(mp, 1)[0])
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
