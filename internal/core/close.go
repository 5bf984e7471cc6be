// Session lifecycle: graceful drain. Close flips the session into the
// closed state and waits for in-flight work to finish, so a serving
// layer can stop a node without abandoning accepted queries or leaking
// worker tokens. The contract, relied on by internal/server:
//
//   - Work started before Close (queries, streaming-cursor queries,
//     appends, materializations) runs to completion; Close waits for it
//     (bounded by the caller's context).
//   - Work arriving after Close begins fails fast with a typed
//     ErrEngineClosed.
//   - Callers queued for an admission slot when Close begins resolve
//     deterministically: they either win a slot (their query is treated
//     as accepted and runs), observe the close (ErrEngineClosed), or
//     observe their own context (ErrCanceled) — never a hang.
//   - The state cache is left intact: Close drains execution, it does
//     not destroy state, so a new serving front-end over the same
//     process image (or a restart that re-opens the session's tables)
//     still benefits from warm sharing.
package core

import (
	"context"
	"fmt"
	"time"
)

// beginOp admits one operation (query, append, materialization) through
// the session's drain gate. It fails with ErrEngineClosed once Close has
// begun; otherwise the operation is tracked until the paired endOp.
func (s *Session) beginOp(what string) error {
	if err := s.life.Begin(); err != nil {
		return fmt.Errorf("%s rejected: %w", what, err)
	}
	return nil
}

// endOp retires an operation admitted by beginOp.
func (s *Session) endOp() { s.life.End() }

// Closed reports whether Close has begun.
func (s *Session) Closed() bool { return s.life.Draining() }

// DrainDuration returns how long the completed drain took (0 until the
// first Close finishes waiting). Exported to the metrics registry as
// sudaf_engine_drain_seconds.
func (s *Session) DrainDuration() time.Duration { return s.life.DrainDuration() }

// Close stops the session accepting work and drains it: new operations
// fail with ErrEngineClosed, queued admission waiters resolve, and Close
// waits until every in-flight query, streaming-cursor query, append and
// materialization has finished — or ctx expires, in which case Close
// returns the context error (wrapped) while the stragglers keep
// honoring their own contexts and deadlines.
//
// Close is idempotent and safe to call from several goroutines: every
// call waits for the drain. It never interrupts admitted work — pair it
// with per-query contexts or QueryTimeout when a hard stop is needed.
func (s *Session) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.life.Drain()
	if err := s.life.Wait(ctx); err != nil {
		return fmt.Errorf("engine close: drain incomplete: %w", err)
	}
	// Continuous subscriptions are long-lived, not in-flight ops, so the
	// drain above does not cover them: shut them down after it
	// (idempotent — racing closers and user Close calls are fine).
	s.closeSubscriptions()
	return nil
}
