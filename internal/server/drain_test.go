package server_test

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"sudaf/internal/core"
	"sudaf/internal/errs"
	"sudaf/internal/faultinject"
	"sudaf/internal/server"
	"sudaf/internal/server/client"
)

// TestGracefulDrainUnderLoad is the PR's headline guarantee: shutting a
// loaded server down loses no accepted query, resolves every caller to
// a typed outcome, leaks no goroutines, and leaves the engine — and its
// warm state cache — intact for the next front-end.
func TestGracefulDrainUnderLoad(t *testing.T) {
	eng := newEngine(t, 20000, core.Options{Workers: 2, MaxConcurrentQueries: 2})
	baseline := runtime.NumGoroutine()
	srv := startServer(t, server.Config{
		Session: eng, MaxInflight: 4, QueueDepth: 8, MetricsLabel: "drain-a"})

	const callers = 24
	type outcome struct{ ok, shed, closed, canceled, refused bool }
	outcomes := make([]outcome, callers)
	errsSeen := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New(srv.Addr(), client.Options{Retries: -1})
			_, err := c.Query(context.Background(), testQuery, "share")
			switch {
			case err == nil:
				outcomes[i].ok = true
			case errors.Is(err, errs.ErrOverloaded):
				outcomes[i].shed = true
			case errors.Is(err, errs.ErrEngineClosed):
				outcomes[i].closed = true
			case errors.Is(err, errs.ErrCanceled):
				outcomes[i].canceled = true
			case client.IsTransport(err):
				// Dialed after the listener closed: refused at the socket.
				// The request provably never reached execution.
				outcomes[i].refused = true
			default:
				errsSeen[i] = err
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let a queue form mid-burst
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	var ok, typedRejects int
	for i, o := range outcomes {
		if errsSeen[i] != nil {
			t.Errorf("caller %d: untyped outcome: %v", i, errsSeen[i])
		}
		if o.ok {
			ok++
		}
		if o.shed || o.closed || o.canceled || o.refused {
			typedRejects++
		}
	}
	if ok == 0 {
		t.Error("no query completed before the drain — burst mistimed")
	}
	if ok+typedRejects != callers {
		t.Errorf("outcomes don't account for every caller: ok=%d rejects=%d of %d",
			ok, typedRejects, callers)
	}
	// Zero lost accepted queries: the engine's lifetime counters balance.
	st := eng.Stats()
	if st.QueriesStarted != st.QueriesCompleted+st.QueriesFailed {
		t.Errorf("engine stats unbalanced: started=%d completed=%d failed=%d",
			st.QueriesStarted, st.QueriesCompleted, st.QueriesFailed)
	}
	// Idempotent shutdown.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}

	// No leaked goroutines: the count settles back to the pre-server
	// baseline (engine worker pool included in both measurements).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("goroutines after drain = %d, baseline %d", n, baseline)
	}

	// The engine survives its front-end: a NEW server over the same
	// session serves immediately, and the share-mode cache is still warm
	// — the repeated query is a full cache hit across the restart.
	srv2 := startServer(t, server.Config{Session: eng, MetricsLabel: "drain-b"})
	c := client.New(srv2.Addr(), client.Options{})
	res, err := c.Query(context.Background(), testQuery, "share")
	if err != nil {
		t.Fatalf("query after front-end restart: %v", err)
	}
	if !res.End.FullCacheHit {
		t.Error("restarted front-end lost the warm cache: want a full cache hit")
	}
}

// TestDrainDeadline: a Shutdown bounded by a too-short context reports
// the incomplete drain without abandoning the in-flight stream, and a
// follow-up unbounded Shutdown completes cleanly.
func TestDrainDeadline(t *testing.T) {
	defer faultinject.Reset()
	eng := newEngine(t, 2000, core.Options{})
	srv := startServer(t, server.Config{Session: eng, MetricsLabel: "drain-dl"})

	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{
		Kind: faultinject.KindDelay, Delay: 150 * time.Millisecond, Times: 1})
	qErr := make(chan error, 1)
	go func() {
		c := client.New(srv.Addr(), client.Options{Retries: -1})
		_, err := c.Query(context.Background(), testQuery, "rewrite")
		qErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the slow query get in flight

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded Shutdown: got %v, want DeadlineExceeded", err)
	}
	if err := <-qErr; err != nil {
		t.Fatalf("in-flight query must survive an interrupted drain: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("final Shutdown: %v", err)
	}
}

// TestDrainRejectsTyped: requests arriving at a draining server get the
// typed closed rejection (503), which the retrying client classifies as
// retryable — it would find the replacement server on a real redeploy.
func TestDrainRejectsTyped(t *testing.T) {
	eng := newEngine(t, 500, core.Options{})
	srv := startServer(t, server.Config{Session: eng, MetricsLabel: "drain-rej"})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The listener is down; transport errors are what clients see. What
	// matters here: the engine is untouched and still serves directly.
	if eng.Closed() {
		t.Fatal("server Shutdown must not close the engine")
	}
	if _, err := eng.Query(testQuery, core.ModeShare); err != nil {
		t.Fatalf("engine query after server shutdown: %v", err)
	}
}

// TestDrainIgnoresSilentConnection: a connection that was accepted but
// never sent a byte (a client pool's spare connection, a port probe)
// must not hold a drain up. net/http's Shutdown waits up to 5 s for one;
// the server closes them itself once the admitted requests have finished.
func TestDrainIgnoresSilentConnection(t *testing.T) {
	eng := newEngine(t, 500, core.Options{})
	srv := startServer(t, server.Config{Session: eng, MetricsLabel: "drain-silent"})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A served request on another connection proves the listener has
	// accepted the silent one too (accepts are in order).
	c := client.New(srv.Addr(), client.Options{})
	if _, err := c.Query(context.Background(), testQuery, "share"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("drain with one silent connection took %s, want < 1s", d)
	}
	// The server closed the silent connection: the read ends at once.
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("silent connection still open after drain (read: %v)", err)
	}
}
