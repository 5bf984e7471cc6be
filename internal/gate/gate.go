// Package gate is the admission mechanism the engine and the serving
// layer share: a drain gate that tracks in-flight work and turns new
// work away once a drain has begun, and a slot pool that bounds how much
// admitted work executes at once. The engine session, the HTTP server
// and each client session hold their own instances with their own
// limits; every outcome is one of the typed sentinels in internal/errs,
// so holders count rejections with errors.Is.
package gate

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sudaf/internal/errs"
)

// Gate tracks in-flight work and its drain. Drain closes done under the
// write lock and Begin checks it under the read lock, so the pair
// {draining check, inflight add} is atomic with respect to the flip: a
// drain never misses work it admitted and never waits for work it
// rejected.
type Gate struct {
	mu       sync.RWMutex
	inflight sync.WaitGroup
	// done is closed when the drain begins; slot waiters select on it so
	// a queued caller resolves instead of waiting for a slot that may
	// never free.
	done chan struct{}
	// start is when Drain closed done (UnixNano); nanos is set once, by
	// whichever Wait observes the drain complete.
	start atomic.Int64
	nanos atomic.Int64
}

// New returns an open gate.
func New() *Gate { return &Gate{done: make(chan struct{})} }

// Begin admits one unit of work, tracked until the paired End. Once
// Drain has been called it fails with ErrEngineClosed.
func (g *Gate) Begin() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.Draining() {
		return fmt.Errorf("%w: draining", errs.ErrEngineClosed)
	}
	g.inflight.Add(1)
	return nil
}

// End retires work admitted by Begin.
func (g *Gate) End() { g.inflight.Done() }

// Drain stops the gate admitting work and wakes every slot waiter. It
// is idempotent and does not wait; Wait does.
func (g *Gate) Drain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.Draining() {
		g.start.Store(time.Now().UnixNano())
		close(g.done)
	}
}

// Draining reports whether Drain has been called.
func (g *Gate) Draining() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// Done returns the channel closed when the drain begins.
func (g *Gate) Done() <-chan struct{} { return g.done }

// Wait blocks until all admitted work has ended, or returns ctx's error
// once ctx is done. Call it after Drain, from any number of goroutines;
// the first to see the drain complete records its duration.
func (g *Gate) Wait(ctx context.Context) error {
	idle := make(chan struct{})
	go func() {
		// This goroutine outlives an expired ctx only until the last unit
		// of work ends — each is bounded by its own context, so it cannot
		// leak indefinitely.
		g.inflight.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		g.nanos.CompareAndSwap(0, time.Now().UnixNano()-g.start.Load())
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DrainDuration is how long the completed drain took, measured from the
// first Drain (0 until a Wait has seen it complete).
func (g *Gate) DrainDuration() time.Duration { return time.Duration(g.nanos.Load()) }

// Slots is a pool of execution slots: a counting semaphore holding
// cap(p) of them. The nil pool is unbounded.
type Slots chan struct{}

// Queue bounds and counts the callers waiting on a pool.
type Queue struct {
	// Max is how many callers may wait for a slot: 0 sheds every caller
	// that finds no free slot, a negative value lets any number wait.
	Max    int
	queued atomic.Int64
}

// Len is the number of callers waiting right now.
func (q *Queue) Len() int64 { return q.queued.Load() }

// Acquire takes a slot, waiting in q when none is free. A caller
// resolves to exactly one outcome and never hangs: a slot (with the
// time it waited, 0 when one was free), ErrOverloaded when q is full,
// ErrCanceled wrapping ctx's error, or ErrEngineClosed when g drains
// first. The caller owes a Release only for a nil error.
func (p Slots) Acquire(ctx context.Context, g *Gate, q *Queue) (waited time.Duration, err error) {
	if p == nil {
		return 0, nil
	}
	select {
	case p <- struct{}{}:
		return 0, nil
	default:
	}
	if n := q.queued.Add(1); q.Max >= 0 && n > int64(q.Max) {
		q.queued.Add(-1)
		return 0, fmt.Errorf("%w: no free slot and %d already waiting", errs.ErrOverloaded, n-1)
	}
	defer q.queued.Add(-1)
	start := time.Now()
	select {
	case p <- struct{}{}:
		return time.Since(start), nil
	case <-ctx.Done():
		return 0, fmt.Errorf("%w: while waiting for a slot: %w", errs.ErrCanceled, ctx.Err())
	case <-g.Done():
		return 0, fmt.Errorf("%w: drained while waiting for a slot", errs.ErrEngineClosed)
	}
}

// Release returns a slot taken by Acquire.
func (p Slots) Release() {
	if p != nil {
		<-p
	}
}
