package gate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sudaf/internal/errs"
)

// queueBounds are the three waiting-line shapes in use: the session's
// (shed at once), the server's (bounded) and the engine's (unbounded).
var queueBounds = []int{0, 3, -1}

func TestGateBeginAfterDrain(t *testing.T) {
	g := New()
	if err := g.Begin(); err != nil {
		t.Fatalf("Begin on an open gate: %v", err)
	}
	g.End()
	if g.Draining() {
		t.Fatal("open gate reports draining")
	}
	g.Drain()
	g.Drain() // idempotent
	if !g.Draining() {
		t.Fatal("drained gate reports open")
	}
	if err := g.Begin(); !errors.Is(err, errs.ErrEngineClosed) {
		t.Fatalf("Begin after Drain: got %v, want ErrEngineClosed", err)
	}
	select {
	case <-g.Done():
	default:
		t.Fatal("Done not closed by Drain")
	}
	// The rejected Begin is not tracked: nothing is in flight.
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait on an idle gate: %v", err)
	}
}

func TestGateWaitForLastEnd(t *testing.T) {
	g := New()
	const work = 3
	for i := 0; i < work; i++ {
		if err := g.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	g.Drain()

	// Wait honours its context while work is in flight, and an
	// interrupted Wait records no drain duration.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := g.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded Wait: got %v, want DeadlineExceeded", err)
	}
	if d := g.DrainDuration(); d != 0 {
		t.Fatalf("drain duration %v recorded before the drain completed", d)
	}

	waited := make(chan error, 1)
	go func() { waited <- g.Wait(context.Background()) }()
	for i := 0; i < work; i++ {
		select {
		case err := <-waited:
			t.Fatalf("Wait returned (%v) with %d unit(s) of work in flight", err, work-i)
		case <-time.After(5 * time.Millisecond):
		}
		g.End()
	}
	if err := <-waited; err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if d := g.DrainDuration(); d <= 0 {
		t.Fatalf("completed drain recorded duration %v", d)
	}
}

// TestGateSlotOutcomes: with every slot taken, a caller sheds exactly
// when the waiting line is at its bound, and each waiter resolves to
// the one outcome that was arranged for it — a slot, its own context,
// or the drain.
func TestGateSlotOutcomes(t *testing.T) {
	for _, bound := range queueBounds {
		t.Run(fmt.Sprintf("queue%d", bound), func(t *testing.T) {
			g, q := New(), &Queue{Max: bound}
			pool := make(Slots, 2)
			for i := 0; i < cap(pool); i++ {
				if w, err := pool.Acquire(context.Background(), g, q); err != nil || w != 0 {
					t.Fatalf("free slot: waited %v, err %v", w, err)
				}
			}

			if bound == 0 {
				if _, err := pool.Acquire(context.Background(), g, q); !errors.Is(err, errs.ErrOverloaded) {
					t.Fatalf("no waiting line: got %v, want ErrOverloaded", err)
				}
				return
			}

			// Queue three waiters, one at a time.
			type outcome struct {
				waiter int
				waited time.Duration
				err    error
			}
			const waiters = 3
			outcomes := make(chan outcome, waiters)
			cancels := make([]context.CancelFunc, waiters)
			for i := range cancels {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cancels[i] = cancel
				go func() {
					w, err := pool.Acquire(ctx, g, q)
					outcomes <- outcome{i, w, err}
				}()
				for q.Len() != int64(i+1) {
					time.Sleep(100 * time.Microsecond)
				}
			}
			// One more caller: shed by a line at its bound, queued otherwise.
			if bound == waiters {
				if _, err := pool.Acquire(context.Background(), g, q); !errors.Is(err, errs.ErrOverloaded) {
					t.Fatalf("full waiting line: got %v, want ErrOverloaded", err)
				}
				if q.Len() != waiters {
					t.Fatalf("shed caller left the queue at %d, want %d", q.Len(), waiters)
				}
			}

			// A freed slot goes to exactly one waiter; then cancel one of the
			// other two; then the drain resolves the last.
			pool.Release()
			won := <-outcomes
			if won.err != nil || won.waited <= 0 {
				t.Fatalf("waiter handed a slot: waited %v, err %v; want a positive wait and no error", won.waited, won.err)
			}
			canceled, drained := (won.waiter+1)%waiters, (won.waiter+2)%waiters
			cancels[canceled]()
			if o := <-outcomes; o.waiter != canceled || !errors.Is(o.err, errs.ErrCanceled) || !errors.Is(o.err, context.Canceled) {
				t.Fatalf("canceled waiter %d: waiter %d got %v, want ErrCanceled wrapping context.Canceled", canceled, o.waiter, o.err)
			}
			g.Drain()
			if o := <-outcomes; o.waiter != drained || !errors.Is(o.err, errs.ErrEngineClosed) {
				t.Fatalf("drained waiter %d: waiter %d got %v, want ErrEngineClosed", drained, o.waiter, o.err)
			}
			if q.Len() != 0 {
				t.Fatalf("%d waiter(s) still counted after all resolved", q.Len())
			}
			if len(pool) != cap(pool) {
				t.Fatalf("pool holds %d slot(s), want %d: a failed Acquire took or lost one", len(pool), cap(pool))
			}
		})
	}
}

// TestGateWaitersRaceDrain is TestAdmissionWaitersDuringClose at the
// type's level: a burst of callers far over the pool's capacity races
// the drain. Every caller resolves to a typed outcome, Wait returns only
// when no admitted caller is still running, and no slot is lost.
func TestGateWaitersRaceDrain(t *testing.T) {
	for _, bound := range queueBounds {
		t.Run(fmt.Sprintf("queue%d", bound), func(t *testing.T) {
			for round := 0; round < 20; round++ {
				g, q := New(), &Queue{Max: bound}
				pool := make(Slots, 2)
				const callers = 24
				var running sync.WaitGroup
				var ok, shed, canceled, closed atomic.Int64
				running.Add(callers)
				for i := 0; i < callers; i++ {
					go func() {
						defer running.Done()
						ctx := context.Background()
						if i%5 == 4 {
							var cancel context.CancelFunc
							ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*20*time.Microsecond)
							defer cancel()
						}
						if err := g.Begin(); err != nil {
							closed.Add(1)
							return
						}
						defer g.End()
						_, err := pool.Acquire(ctx, g, q)
						switch {
						case err == nil:
							time.Sleep(50 * time.Microsecond)
							pool.Release()
							ok.Add(1)
						case errors.Is(err, errs.ErrOverloaded):
							shed.Add(1)
						case errors.Is(err, errs.ErrCanceled):
							canceled.Add(1)
						case errors.Is(err, errs.ErrEngineClosed):
							closed.Add(1)
						default:
							t.Errorf("untyped outcome: %v", err)
						}
					}()
				}
				time.Sleep(time.Duration(round) * 20 * time.Microsecond)
				g.Drain()
				if err := g.Wait(context.Background()); err != nil {
					t.Fatalf("Wait: %v", err)
				}
				// Wait returned: every admitted caller has ended, so the pool
				// and the waiting line are empty now, not eventually.
				if len(pool) != 0 || q.Len() != 0 {
					t.Fatalf("after Wait: %d slot(s) held, %d waiting", len(pool), q.Len())
				}
				running.Wait()
				if total := ok.Load() + shed.Load() + canceled.Load() + closed.Load(); total != callers {
					t.Fatalf("outcomes account for %d of %d callers", total, callers)
				}
				if bound < 0 && shed.Load() != 0 {
					t.Fatalf("unbounded queue shed %d caller(s)", shed.Load())
				}
			}
		})
	}
}
