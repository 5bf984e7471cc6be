package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sudaf/internal/errs"
	"sudaf/internal/faultinject"
	"sudaf/internal/storage"
)

const closeTestQuery = `SELECT s_state, qm(ss_list_price), avg(ss_sales_price)
	FROM store_sales, store WHERE ss_store_sk = s_store_sk GROUP BY s_state`

// TestAdmissionWaitersDuringClose races a burst of queries — far more
// than the admission cap — against Engine close. Every call must resolve
// to exactly one of {success, ErrCanceled, ErrEngineClosed}, no worker
// or admission token may be lost, and the lifetime counters must
// balance. Run under -race by the CI stress matrix.
func TestAdmissionWaitersDuringClose(t *testing.T) {
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			s := newTestSession(t, 40000, 2)
			s.admit = make(chan struct{}, 2) // force a deep admission queue

			const callers = 16
			type outcome struct {
				ok       bool
				canceled bool
				closed   bool
				err      error
			}
			outcomes := make([]outcome, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ctx := context.Background()
					if i%5 == 4 {
						// A few callers carry a deadline that can expire
						// while queued, exercising the ErrCanceled arm.
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i)*time.Millisecond)
						defer cancel()
					}
					res, err := s.QueryContext(ctx, closeTestQuery, ModeShare)
					switch {
					case err == nil && res != nil:
						outcomes[i] = outcome{ok: true}
					case errors.Is(err, errs.ErrEngineClosed):
						outcomes[i] = outcome{closed: true}
					case errors.Is(err, errs.ErrCanceled):
						outcomes[i] = outcome{canceled: true}
					default:
						outcomes[i] = outcome{err: err}
					}
				}(i)
			}
			// Let some queries execute and a queue form, then drain.
			time.Sleep(time.Duration(2+round*4) * time.Millisecond)
			if err := s.Close(context.Background()); err != nil {
				t.Fatalf("Close: %v", err)
			}
			wg.Wait()

			for i, o := range outcomes {
				if o.err != nil {
					t.Errorf("caller %d: untyped outcome: %v", i, o.err)
				}
			}
			// No lost admission/worker tokens: the semaphore is empty once
			// the drain completed.
			if n := len(s.admit); n != 0 {
				t.Errorf("admission semaphore holds %d token(s) after drain", n)
			}
			st := s.Stats()
			if st.QueriesStarted != st.QueriesCompleted+st.QueriesFailed {
				t.Errorf("stats unbalanced after drain: started=%d completed=%d failed=%d",
					st.QueriesStarted, st.QueriesCompleted, st.QueriesFailed)
			}

			// The closed engine rejects everything with the typed sentinel.
			if _, err := s.Query(closeTestQuery, ModeShare); !errors.Is(err, errs.ErrEngineClosed) {
				t.Errorf("query after close: got %v, want ErrEngineClosed", err)
			}
			delta := storage.NewTable("store_sales")
			if _, err := s.Append(context.Background(), "store_sales", delta); !errors.Is(err, errs.ErrEngineClosed) {
				t.Errorf("append after close: got %v, want ErrEngineClosed", err)
			}
			if err := s.Materialize("v_after_close", closeTestQuery); !errors.Is(err, errs.ErrEngineClosed) {
				t.Errorf("materialize after close: got %v, want ErrEngineClosed", err)
			}
			// Close is idempotent.
			if err := s.Close(context.Background()); err != nil {
				t.Errorf("second Close: %v", err)
			}
			if !s.Closed() {
				t.Error("Closed() = false after Close")
			}
		})
	}
}

// TestCloseDeadline: Close with a too-short context reports the drain as
// incomplete without abandoning the in-flight query, and a later
// unbounded Close completes once the query finishes.
func TestCloseDeadline(t *testing.T) {
	defer faultinject.Reset()
	s := newTestSession(t, 2000, 1)

	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{
		Kind: faultinject.KindDelay, Delay: 60 * time.Millisecond, Times: 1})
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Query(closeTestQuery, ModeRewrite)
		errCh <- err
	}()
	// The query is in flight once its worker has reached the delay.
	for faultinject.HitCount(faultinject.PointExecWorker) < 1 {
		select {
		case err := <-errCh:
			t.Fatalf("query finished before its worker started: %v", err)
		case <-time.After(time.Millisecond):
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Close: got %v, want DeadlineExceeded", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("in-flight query must survive an interrupted drain: %v", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("final Close: %v", err)
	}
	if s.DrainDuration() <= 0 {
		t.Error("DrainDuration not recorded after completed drain")
	}
}

// TestCloseKeepsCacheIntact: drain does not destroy cached aggregation
// states — the contract the serving layer relies on to keep sharing warm
// across a server restart within the same process.
func TestCloseKeepsCacheIntact(t *testing.T) {
	s := newTestSession(t, 5000, 2)
	if _, err := s.Query(closeTestQuery, ModeShare); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Cache().Snapshot()); n == 0 {
		t.Fatal("warmup query cached nothing")
	}
	before := len(s.Cache().Snapshot())
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := len(s.Cache().Snapshot()); after != before {
		t.Errorf("drain changed the cache: %d -> %d entries", before, after)
	}
}
