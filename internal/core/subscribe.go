// Continuous windowed queries: Subscribe registers a windowed statement
// against a table and streams one WindowResult per emission as appends
// land. The delivery contract mirrors the server's event-stream drain
// contract (PR 5):
//
//   - FIFO: notifications are enqueued under ingestMu in append order,
//     so emissions arrive in the order their rows were appended.
//   - Exactly-once: each append enqueues exactly one notification per
//     subscription, the initial snapshot is cut atomically with
//     registration (under ingestMu), and the worker pops each note
//     once — no torn, duplicated or skipped windows even when appends
//     race the subscription start.
//   - Append never blocks: the note queue is unbounded; a slow consumer
//     exerts backpressure only on its own worker (the blocking send on
//     Results), which merely extends how long old table versions stay
//     pinned.
//
// Workers compute over pinned immutable versions (appends publish new
// versions and never mutate old ones), so a racing append can never
// tear a window mid-computation; absolute row indexes stay valid across
// versions because every new version extends the old rows in place.
//
// A subscription runs the one-shot window driver (window.go) note by
// note: Subscription.frames turns each note into the frames it completes,
// and process values them through windowValues over folds that persist
// across notes.
package core

import (
	"context"
	"fmt"
	"sync"

	"sudaf/internal/errs"
	"sudaf/internal/exec"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// WindowResult is one emission batch of a continuous windowed query.
type WindowResult struct {
	// Table holds the emitted rows, shaped exactly like the one-shot
	// windowed query's output (one row per frame in this batch).
	Table *storage.Table
	// Seq numbers result batches contiguously from 1; a gap means a bug.
	Seq int64
	// Epoch is the table version the batch was computed against.
	Epoch int64
	// FirstRow/LastRow bound absolute base-table rows: for a ROWS n
	// PRECEDING batch the new rows its frames end at, for every other
	// batch (one frame) the frame's rows.
	FirstRow, LastRow int
	// NumericFaults counts NaN/±Inf outputs tolerated under the
	// permissive numeric policy while building this batch.
	NumericFaults int
}

// subNote is one queued append notification: the pinned new table
// version and the absolute row range it added.
type subNote struct {
	tbl    *storage.Table
	lo, hi int
	epoch  int64
}

// Subscription is a live continuous windowed query. Read emissions from
// Results; after the channel closes, Err reports why (nil for a plain
// Close). Close is idempotent and waits for the worker to exit.
type Subscription struct {
	s    *Session
	id   int64
	spec *sqlparse.WindowSpec
	ps   *planState

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []subNote
	closed bool
	err    error

	ch   chan *WindowResult
	quit chan struct{} // closed by Close to unblock a pending delivery
	done chan struct{} // closed when the worker has exited

	seq int64
	// Incremental frame state. The driver's folds persist across
	// notifications (nil in baseline mode, which recomputes each frame);
	// ticks holds the first row of each live EPOCHS batch, oldest first.
	fold  *foldDriver
	ticks []int
}

// Subscribe parses a windowed statement and opens a continuous query
// over its base table in the given mode. The subscription first emits
// the windows already present in the table (the initial snapshot, cut
// atomically against racing appends), then one batch per Append. The
// statement must carry an OVER clause; EPOCHS frames are only legal
// here, where each Append batch is one tick.
func (s *Session) Subscribe(ctx context.Context, sql string, mode Mode) (*Subscription, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.beginOp("subscribe"); err != nil {
		return nil, err
	}
	defer s.endOp()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errs.ErrParse, err)
	}
	if stmt.Window == nil {
		return nil, fmt.Errorf("Subscribe requires an OVER clause (e.g. OVER (ROWS 9 PRECEDING))")
	}
	if err := s.checkAggregates(stmt); err != nil {
		return nil, err
	}

	// Registration and the initial-snapshot cut are atomic with respect
	// to appends: under ingestMu, the catalog snapshot, the queued
	// snapshot note, and the registry insertion all see the same table
	// version, so the first real append notification is exactly the
	// version after the snapshot — no torn or duplicated windows.
	s.ingestMu.Lock()
	qc := &queryCtx{cat: s.cat.Snapshot(), cache: s.stateCache()}
	ps := &planState{s: s, qc: qc, stmt: stmt, mode: mode, continuous: true}
	if err := queryPipeline.Run(ctx, ps); err != nil {
		s.ingestMu.Unlock()
		return nil, err
	}
	sub := &Subscription{
		s:    s,
		spec: stmt.Window,
		ps:   ps,
		ch:   make(chan *WindowResult),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	sub.cond = sync.NewCond(&sub.mu)
	if mode != ModeBaseline {
		// Every slot is folded live (the plan bypassed the cache), so the
		// value matrix is the task registry's, as executePlan reads it.
		states, ok := ps.taskStates()
		if !ok {
			s.ingestMu.Unlock()
			return nil, fmt.Errorf("window plan: task registry not covered by canonical states")
		}
		for _, sl := range ps.slots {
			sl.finalIdx = sl.taskIdx
		}
		sub.fold = newFoldDriver(stmt.Window, states)
	}
	if n := ps.tbl.NumRows(); n > 0 {
		sub.queue = append(sub.queue, subNote{tbl: ps.tbl, lo: 0, hi: n, epoch: ps.tbl.Epoch})
	}
	s.subMu.Lock()
	s.subSeq++
	sub.id = s.subSeq
	if s.subs == nil {
		s.subs = map[int64]*Subscription{}
	}
	s.subs[sub.id] = sub
	s.subMu.Unlock()
	s.ingestMu.Unlock()

	s.windowSubscriptions.Add(1)
	go sub.run()
	return sub, nil
}

// notifySubs enqueues one note per subscription on the appended table.
// Called under ingestMu right after the new version is published, so
// note order across subscriptions equals append order.
func (s *Session) notifySubs(table string, tbl *storage.Table, lo, hi int) {
	s.subMu.Lock()
	targets := make([]*Subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		if sub.ps.tbl.Name == table {
			targets = append(targets, sub)
		}
	}
	s.subMu.Unlock()
	for _, sub := range targets {
		sub.mu.Lock()
		if !sub.closed {
			sub.queue = append(sub.queue, subNote{tbl: tbl, lo: lo, hi: hi, epoch: tbl.Epoch})
			sub.cond.Signal()
		}
		sub.mu.Unlock()
	}
}

// closeSubscriptions shuts every live subscription down; Session.Close
// calls it after the drain (subscription workers are not in-flight
// operations — they are long-lived — so the drain does not cover them).
func (s *Session) closeSubscriptions() {
	s.subMu.Lock()
	subs := make([]*Subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

// Results returns the emission stream. It is closed when the
// subscription ends — by Close, session Close, or an internal error
// (see Err). Consuming slowly is safe: it only delays this
// subscription's worker.
func (sub *Subscription) Results() <-chan *WindowResult { return sub.ch }

// Err reports why the stream ended: nil after a plain Close, the
// failure otherwise. Meaningful once Results is closed.
func (sub *Subscription) Err() error {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.err
}

// Close ends the subscription and waits for its worker to exit. Safe to
// call multiple times and from multiple goroutines.
func (sub *Subscription) Close() {
	sub.mu.Lock()
	already := sub.closed
	sub.closed = true
	sub.mu.Unlock()
	if !already {
		close(sub.quit)
		sub.cond.Signal()
	}
	<-sub.done
	sub.s.subMu.Lock()
	delete(sub.s.subs, sub.id)
	sub.s.subMu.Unlock()
}

// fail records a terminal error and stops accepting notes; the result
// channel closes when run returns.
func (sub *Subscription) fail(err error) {
	sub.mu.Lock()
	if sub.err == nil {
		sub.err = err
	}
	sub.closed = true
	sub.mu.Unlock()
}

// run is the subscription worker: pop one note, compute its emissions
// over the pinned version, deliver them in order.
func (sub *Subscription) run() {
	defer close(sub.done)
	defer close(sub.ch)
	for {
		sub.mu.Lock()
		for len(sub.queue) == 0 && !sub.closed {
			sub.cond.Wait()
		}
		if sub.closed && len(sub.queue) == 0 || sub.err != nil {
			sub.mu.Unlock()
			return
		}
		if sub.closed {
			// Closed with notes pending: drop them — the consumer asked
			// to stop, not to drain.
			sub.mu.Unlock()
			return
		}
		note := sub.queue[0]
		sub.queue = sub.queue[1:]
		sub.mu.Unlock()

		// A panic anywhere on the compute path fails the subscription
		// cleanly instead of crashing the process (mirrors the query
		// path's submit-level recover).
		results, err := func() (res []*WindowResult, err error) {
			defer func() {
				if r := recover(); r != nil {
					res = nil
					err = fmt.Errorf("subscription panicked (recovered): %v", r)
				}
			}()
			return sub.process(note)
		}()
		for _, r := range results {
			select {
			case sub.ch <- r:
			case <-sub.quit:
				return
			}
		}
		if err != nil {
			sub.fail(err)
			return
		}
	}
}

// frames lists the frames a note completes, in emission order. A ROWS
// note completes those whose emit row it appended. An EPOCHS note is one
// tick: a sliding frame covers the last n+1 ticks and emits on every one;
// a tumbling frame emits once per n accumulated ticks.
func (sub *Subscription) frames(note subNote) []frame {
	if sub.spec.Unit != sqlparse.WindowEpochs {
		return rowsFrames(sub.spec, note.lo, note.hi)
	}
	sub.ticks = append(sub.ticks, note.lo)
	if sub.spec.Sliding && len(sub.ticks) > sub.spec.N+1 {
		sub.ticks = sub.ticks[1:]
	} else if !sub.spec.Sliding && len(sub.ticks) < sub.spec.N {
		return nil
	}
	fr := frame{sub.ticks[0], note.hi}
	if !sub.spec.Sliding {
		sub.ticks = sub.ticks[:0]
	}
	return []frame{fr}
}

// process values the frames one note completes and builds their
// emission batches: a sliding ROWS note is one WindowResult, a frame
// ending at each new row; every other frame is its own WindowResult.
// Frames completed before a failure are still delivered.
func (sub *Subscription) process(note subNote) ([]*WindowResult, error) {
	frames := sub.frames(note)
	if len(frames) == 0 {
		return nil, nil
	}
	vals, err := sub.s.windowValues(context.Background(), sub.ps.reg, sub.fold, note.tbl, frames)
	if err != nil {
		done := 0
		if len(vals) > 0 {
			done = len(vals[0])
		}
		frames = frames[:done]
	}
	var out []*WindowResult
	for len(frames) > 0 {
		n, first := 1, frames[0].lo
		if sub.spec.Unit == sqlparse.WindowRows && sub.spec.Sliding {
			n, first = len(frames), frames[0].hi-1
		}
		res, eerr := sub.emit(note, frames[:n], vals, first, frames[n-1].hi-1)
		if eerr != nil {
			return out, eerr
		}
		out = append(out, res)
		frames = frames[n:]
		for i := range vals {
			vals[i] = vals[i][n:]
		}
	}
	return out, err
}

// emit builds one WindowResult from a batch of frames and the value
// matrix whose columns start at the batch's first frame.
func (sub *Subscription) emit(note subNote, frames []frame, vals [][]float64, firstRow, lastRow int) (*WindowResult, error) {
	out, err := exec.BuildWindowOutput(context.Background(), sub.ps.spec, note.tbl, emitRows(frames), vals)
	if err != nil {
		return nil, err
	}
	sub.seq++
	sub.s.windowEmits.Add(int64(len(frames)))
	return &WindowResult{
		Table:         out.Table,
		Seq:           sub.seq,
		Epoch:         note.epoch,
		FirstRow:      firstRow,
		LastRow:       lastRow,
		NumericFaults: out.NumericFaults,
	}, nil
}
