package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sudaf/internal/core"
	"sudaf/internal/errs"
	"sudaf/internal/faultinject"
	"sudaf/internal/server"
	"sudaf/internal/server/client"
)

// TestQueryRoundTrip: a query over the wire returns exactly what the
// engine returns directly — schema, values, and the end-frame stats.
func TestQueryRoundTrip(t *testing.T) {
	eng := newEngine(t, 4000, core.Options{})
	srv := startServer(t, server.Config{Session: eng})
	c := client.New(srv.Addr(), client.Options{})

	direct, err := eng.Query(testQuery, core.ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), testQuery, "share")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 {
		t.Fatalf("columns = %v, want 3", res.Columns)
	}
	if len(res.Rows) != direct.Table.NumRows() {
		t.Fatalf("rows = %d, want %d", len(res.Rows), direct.Table.NumRows())
	}
	for i := 0; i < direct.Table.NumRows(); i++ {
		if got, want := res.String(i, 0), direct.Table.Cols[0].StringAt(i); got != want {
			t.Errorf("row %d state = %q, want %q", i, got, want)
		}
		for col := 1; col < 3; col++ {
			got, want := res.Float(i, col), direct.Table.Cols[col].AsFloat(i)
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("row %d col %d = %v, want %v", i, col, got, want)
			}
		}
	}
	if res.End == nil || res.End.Groups != direct.Groups {
		t.Errorf("end frame = %+v, want groups %d", res.End, direct.Groups)
	}
	if res.End.Stats == nil {
		t.Error("end frame missing stats")
	}
}

// TestSmallBatchStreaming: tiny batch frames arrive as several frames
// and reassemble into the same result.
func TestSmallBatchStreaming(t *testing.T) {
	eng := newEngine(t, 4000, core.Options{})
	srv := startServer(t, server.Config{Session: eng, BatchRows: 1})
	c := client.New(srv.Addr(), client.Options{})
	res, err := c.Query(context.Background(), testQuery, "rewrite")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 4 distinct states
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

// TestSessionsAndPrepared: prepared handles are scoped to their
// session, survive across requests, and die with the session.
func TestSessionsAndPrepared(t *testing.T) {
	eng := newEngine(t, 2000, core.Options{})
	srv := startServer(t, server.Config{Session: eng})
	ctx := context.Background()

	c := client.New(srv.Addr(), client.Options{})
	if err := c.OpenSession(ctx); err != nil {
		t.Fatal(err)
	}
	handle, err := c.Prepare(ctx, testQuery, "share")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.QueryPrepared(ctx, handle)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.QueryPrepared(ctx, handle)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("prepared reruns disagree: %d vs %d rows", len(r1.Rows), len(r2.Rows))
	}
	// The second identical share-mode run is answered from the cache.
	if !r2.End.FullCacheHit {
		t.Error("second prepared share run should be a full cache hit")
	}

	// A bad statement fails at prepare time.
	if _, err := c.Prepare(ctx, "SELECT nonsense FROM", "share"); !errors.Is(err, errs.ErrParse) {
		t.Errorf("bad prepare: got %v, want ErrParse", err)
	}
	// Handles are per-session: a fresh session cannot see them.
	c2 := client.New(srv.Addr(), client.Options{})
	if err := c2.OpenSession(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.QueryPrepared(ctx, handle); err == nil ||
		!strings.Contains(err.Error(), "no prepared statement") {
		t.Errorf("cross-session prepared lookup: got %v, want unknown_prepared", err)
	}
	// Sessionless prepared execution is a bad request.
	c3 := client.New(srv.Addr(), client.Options{})
	if _, err := c3.QueryPrepared(ctx, handle); err == nil ||
		!strings.Contains(err.Error(), "require a session") {
		t.Errorf("sessionless prepared: got %v", err)
	}
	// Closing the session kills its handles.
	sid := c.Session()
	if err := c.CloseSession(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+srv.Addr()+"/v1/query", "application/json",
		strings.NewReader(`{"prepared":"`+handle+`","session":"`+sid+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("prepared query on closed session: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionCap: the open-session cap sheds session creation with a
// typed overloaded error.
func TestSessionCap(t *testing.T) {
	eng := newEngine(t, 500, core.Options{})
	srv := startServer(t, server.Config{Session: eng, MaxSessions: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		c := client.New(srv.Addr(), client.Options{})
		if err := c.OpenSession(ctx); err != nil {
			t.Fatal(err)
		}
	}
	c := client.New(srv.Addr(), client.Options{Retries: -1})
	if err := c.OpenSession(ctx); !errors.Is(err, errs.ErrOverloaded) {
		t.Errorf("over-cap session open: got %v, want ErrOverloaded", err)
	}
}

// TestDeadlineHeaderPropagation: X-Sudaf-Deadline-Ms becomes a server-
// side context deadline that cancels the engine mid-query, surfacing as
// a typed canceled error — proof the deadline crossed all three layers.
func TestDeadlineHeaderPropagation(t *testing.T) {
	defer faultinject.Reset()
	eng := newEngine(t, 2000, core.Options{})
	srv := startServer(t, server.Config{Session: eng})

	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{
		Kind: faultinject.KindDelay, Delay: 200 * time.Millisecond})
	body := `{"sql":` + jsonString(testQuery) + `,"mode":"rewrite"}`
	req, _ := http.NewRequest(http.MethodPost, "http://"+srv.Addr()+"/v1/query",
		strings.NewReader(body))
	req.Header.Set("X-Sudaf-Deadline-Ms", "30")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 408 {
		t.Fatalf("status = %d, want 408", resp.StatusCode)
	}
	var eb server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != server.CodeCanceled {
		t.Errorf("code = %q, want canceled", eb.Code)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestOverloadShedding: with one slot and a one-deep queue, a burst of
// slow queries sheds the excess fast with typed 429s, and the shed
// counter shows up in the metrics scrape.
func TestOverloadShedding(t *testing.T) {
	defer faultinject.Reset()
	eng := newEngine(t, 1000, core.Options{})
	srv := startServer(t, server.Config{Session: eng, MaxInflight: 1, QueueDepth: 1})

	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{
		Kind: faultinject.KindDelay, Delay: 80 * time.Millisecond})
	const burst = 6
	var wg sync.WaitGroup
	var ok, shed, other int64
	var mu sync.Mutex
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(srv.Addr(), client.Options{Retries: -1})
			_, err := c.Query(context.Background(), testQuery, "rewrite")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, errs.ErrOverloaded):
				shed++
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Errorf("%d untyped outcomes in overload burst", other)
	}
	if ok == 0 || shed == 0 {
		t.Errorf("burst outcomes ok=%d shed=%d; want both nonzero", ok, shed)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"sudaf_server_shed_total", "sudaf_server_requests_total",
		"sudaf_server_queue_depth", "sudaf_queries_started_total",
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("metrics scrape missing %s", want)
		}
	}
}

// TestSessionConcurrencyCap: one session at its cap sheds its own
// excess while a different session keeps being served.
func TestSessionConcurrencyCap(t *testing.T) {
	defer faultinject.Reset()
	eng := newEngine(t, 1000, core.Options{})
	srv := startServer(t, server.Config{Session: eng, SessionConcurrency: 1})
	ctx := context.Background()

	busy := client.New(srv.Addr(), client.Options{Retries: -1})
	if err := busy.OpenSession(ctx); err != nil {
		t.Fatal(err)
	}
	calm := client.New(srv.Addr(), client.Options{Retries: -1})
	if err := calm.OpenSession(ctx); err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.PointExecWorker, faultinject.Spec{
		Kind: faultinject.KindDelay, Delay: 100 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := busy.Query(ctx, testQuery, "rewrite")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the slow query hold the session slot
	if _, err := busy.Query(ctx, testQuery, "rewrite"); !errors.Is(err, errs.ErrOverloaded) {
		t.Errorf("second query in capped session: got %v, want ErrOverloaded", err)
	}
	if _, err := calm.Query(ctx, testQuery, "rewrite"); err != nil {
		t.Errorf("other session must not be starved: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("slow query: %v", err)
	}
}

// TestAppendOverWire: a columnar append lands in the engine and the
// next query sees it; malformed appends fail typed.
func TestAppendOverWire(t *testing.T) {
	eng := newEngine(t, 1000, core.Options{})
	srv := startServer(t, server.Config{Session: eng})
	ctx := context.Background()
	c := client.New(srv.Addr(), client.Options{})

	before, err := c.Query(ctx, "SELECT count() FROM store_sales", "rewrite")
	if err != nil {
		t.Fatal(err)
	}
	ar, err := c.Append(ctx, "store_sales", []server.ColumnData{
		{Name: "ss_store_sk", Kind: "int", Ints: []int64{0, 1}},
		{Name: "ss_list_price", Kind: "float", Floats: []float64{50, 60}},
		{Name: "ss_sales_price", Kind: "float", Floats: []float64{25, 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ar.RowsAppended != 2 || ar.NewEpoch <= ar.OldEpoch {
		t.Fatalf("append response %+v", ar)
	}
	after, err := c.Query(ctx, "SELECT count() FROM store_sales", "rewrite")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Float(0, 0), before.Float(0, 0)+2; got != want {
		t.Errorf("count after append = %v, want %v", got, want)
	}

	// Unknown table → typed 404.
	if _, err := c.Append(ctx, "no_such_table", []server.ColumnData{
		{Name: "x", Kind: "float", Floats: []float64{1}},
	}); !errors.Is(err, errs.ErrUnknownTable) {
		t.Errorf("append to unknown table: got %v, want ErrUnknownTable", err)
	}
	// Ragged columns → bad request, never ambiguous (rejected at decode).
	if _, err := c.Append(ctx, "store_sales", []server.ColumnData{
		{Name: "ss_store_sk", Kind: "int", Ints: []int64{1}},
		{Name: "ss_list_price", Kind: "float", Floats: []float64{1, 2}},
		{Name: "ss_sales_price", Kind: "float", Floats: []float64{1}},
	}); err == nil || errors.Is(err, client.ErrAmbiguous) {
		t.Errorf("ragged append: got %v, want non-ambiguous bad request", err)
	}
}

// TestBadRequests: malformed bodies fail with 400s, not hangs or 500s.
func TestBadRequests(t *testing.T) {
	eng := newEngine(t, 200, core.Options{})
	srv := startServer(t, server.Config{Session: eng, MaxRequestBytes: 512})
	base := "http://" + srv.Addr()

	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"not json", "/v1/query", "{", 400},
		{"unknown field", "/v1/query", `{"sql":"SELECT 1","bogus":true}`, 400},
		{"sql and prepared", "/v1/query", `{"sql":"x","prepared":"p1"}`, 400},
		{"neither sql nor prepared", "/v1/query", `{}`, 400},
		{"unknown mode", "/v1/query", `{"sql":"SELECT 1","mode":"warp"}`, 400},
		{"negative batch", "/v1/query", `{"sql":"SELECT 1","batchRows":-1}`, 400},
		{"oversized body", "/v1/query", `{"sql":"` + strings.Repeat("x", 1024) + `"}`, 400},
		{"append no columns", "/v1/append", `{"table":"t"}`, 400},
		{"append bad kind", "/v1/append", `{"table":"t","columns":[{"name":"x","kind":"blob"}]}`, 400},
		{"unknown session", "/v1/query", `{"sql":"SELECT 1","session":"s999"}`, 404},
	}
	for _, tc := range cases {
		resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}

	// A deadline header the server cannot honor is rejected, not dropped:
	// the client asked for a bound and must not run unbounded.
	for _, deadline := range []string{"abc", "0", "-5"} {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/query", strings.NewReader(`{"sql":"SELECT 1"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Sudaf-Deadline-Ms", deadline)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("deadline %q: %v", deadline, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("deadline %q: status = %d, want 400", deadline, resp.StatusCode)
		}
	}
}

// TestClientRetrySchedule: the backoff schedule is deterministic
// (10ms, 20ms, 40ms, ... by default) and gives up typed after the
// attempt budget against a persistently overloaded server.
func TestClientRetrySchedule(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(429)
		json.NewEncoder(w).Encode(server.ErrorBody{ //nolint:errcheck
			Code: server.CodeOverloaded, Error: "always full"})
	}))
	defer stub.Close()

	var slept []time.Duration
	c := client.New(strings.TrimPrefix(stub.URL, "http://"), client.Options{
		Retries: 3,
		Sleep:   func(_ context.Context, d time.Duration) { slept = append(slept, d) },
	})
	_, err := c.Query(context.Background(), testQuery, "share")
	if !errors.Is(err, client.ErrRetriesExhausted) || !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("got %v, want ErrRetriesExhausted wrapping ErrOverloaded", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Errorf("backoff schedule = %v, want %v", slept, want)
	}
}

// TestHealthAndStats: the unauthenticated introspection endpoints
// respond with well-formed JSON.
func TestHealthAndStats(t *testing.T) {
	eng := newEngine(t, 500, core.Options{})
	srv := startServer(t, server.Config{Session: eng})
	c := client.New(srv.Addr(), client.Options{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health status = %q, want ok", h.Status)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
}

// TestNonFiniteFloatsOverWire: NaN aggregates survive the JSON trip via
// their string spellings.
func TestNonFiniteFloatsOverWire(t *testing.T) {
	eng := newEngine(t, 0, core.Options{}) // zero rows: avg over nothing → NaN
	srv := startServer(t, server.Config{Session: eng})
	c := client.New(srv.Addr(), client.Options{})
	res, err := c.Query(context.Background(),
		"SELECT avg(ss_list_price) FROM store_sales", "rewrite")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !math.IsNaN(res.Float(0, 0)) {
		t.Errorf("empty-table avg over the wire = %v, want NaN", res.Rows)
	}
}
