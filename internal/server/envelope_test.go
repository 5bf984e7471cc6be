package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sudaf/internal/core"
	"sudaf/internal/server"
)

// envelopeRoutes is every POST route with a body it accepts. inSession
// is false only for /v1/session, which ignores its body and cannot be
// made inside a session (it opens one), so the body and session cases
// do not apply to it.
var envelopeRoutes = []struct {
	path, body string
	inSession  bool
}{
	{"/v1/session", `{}`, false},
	{"/v1/prepare", `{"sql":"SELECT count() FROM store_sales"}`, true},
	{"/v1/query", `{"sql":"SELECT count() FROM store_sales"}`, true},
	{"/v1/batch", `{"queries":["SELECT count() FROM store_sales"]}`, true},
	{"/v1/append", `{"table":"store","columns":[{"name":"s_store_sk","kind":"int","ints":[9]},{"name":"s_state","kind":"string","strings":["OR"]}]}`, true},
	{"/v1/subscribe", `{"sql":"SELECT max(ss_list_price) OVER (ROWS 10 PRECEDING) FROM store_sales"}`, true},
}

// post drives one request through the server's mux and returns the
// status and, for a rejection, its wire code.
func post(t *testing.T, srv *server.Server, method, path, body string, hdr map[string]string) (int, string) {
	t.Helper()
	// No accepted request may outlive the test: the only long-lived one,
	// an admitted subscription, ends when this context does.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var eb server.ErrorBody
	if rec.Code != http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s %s: status %d with a body that is no ErrorBody: %q", method, path, rec.Code, rec.Body)
		}
	}
	return rec.Code, eb.Code
}

// TestEnvelope: the admission envelope is one code path, so every POST
// route answers each kind of rejection with the same status and wire
// code, decides them in the same order, and a rejected request never
// reaches the engine.
func TestEnvelope(t *testing.T) {
	eng := newEngine(t, 200, core.Options{})
	newServer := func(t *testing.T) (*server.Server, string) {
		srv, err := server.New(server.Config{Session: eng, MaxRequestBytes: 4096,
			MaxInflight: 1, QueueDepth: 1, SessionConcurrency: 1, MetricsLabel: t.Name()})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/session", strings.NewReader("{}")))
		var sr server.SessionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || sr.ID == "" {
			t.Fatalf("open session: %d %q", rec.Code, rec.Body)
		}
		return srv, sr.ID
	}
	if srv, _ := newServer(t); len(srv.PostRoutes()) != len(envelopeRoutes) {
		t.Fatalf("server has %d POST routes, the test covers %d", len(srv.PostRoutes()), len(envelopeRoutes))
	}

	cases := []struct {
		name       string
		method     string
		body       func(valid string) string
		hdr        func(session string) map[string]string
		arrange    func(t *testing.T, srv *server.Server, session string)
		inSession  bool // decided by the body or the session: in-session routes only
		wantStatus int
		wantCode   string
	}{
		{name: "GET", method: "GET", wantStatus: 400, wantCode: server.CodeBadRequest},
		{name: "oversized body",
			body:       func(string) string { return `{"sql":"` + strings.Repeat("x", 8192) + `"}` },
			wantStatus: 400, wantCode: server.CodeBadRequest},
		{name: "malformed JSON", inSession: true,
			body:       func(string) string { return `{` },
			wantStatus: 400, wantCode: server.CodeBadRequest},
		{name: "unknown field", inSession: true,
			body:       func(valid string) string { return `{"bogus":1,` + valid[1:] },
			wantStatus: 400, wantCode: server.CodeBadRequest},
		{name: "malformed deadline",
			hdr:        func(string) map[string]string { return map[string]string{"X-Sudaf-Deadline-Ms": "soon"} },
			wantStatus: 400, wantCode: server.CodeBadRequest},
		{name: "unknown session", inSession: true,
			hdr:        func(string) map[string]string { return map[string]string{"X-Sudaf-Session": "s999"} },
			wantStatus: 404, wantCode: server.CodeUnknownSession},
		{name: "draining",
			hdr:        func(s string) map[string]string { return map[string]string{"X-Sudaf-Session": s} },
			arrange:    func(_ *testing.T, srv *server.Server, _ string) { srv.BeginDrain() },
			wantStatus: 503, wantCode: server.CodeClosed},
		// The session is resolved before the drain gate on every route.
		{name: "draining, unknown session", inSession: true,
			hdr:        func(string) map[string]string { return map[string]string{"X-Sudaf-Session": "s999"} },
			arrange:    func(_ *testing.T, srv *server.Server, _ string) { srv.BeginDrain() },
			wantStatus: 404, wantCode: server.CodeUnknownSession},
		{name: "session at its cap", inSession: true,
			hdr: func(s string) map[string]string { return map[string]string{"X-Sudaf-Session": s} },
			arrange: func(t *testing.T, srv *server.Server, session string) {
				t.Cleanup(srv.HoldSession(session))
			},
			wantStatus: 429, wantCode: server.CodeOverloaded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, session := newServer(t)
			if tc.arrange != nil {
				tc.arrange(t, srv, session)
			}
			started, appends := eng.Stats().QueriesStarted, eng.IngestStats().Appends
			for _, rt := range envelopeRoutes {
				if tc.inSession && !rt.inSession {
					continue
				}
				method, body, hdr := "POST", rt.body, map[string]string(nil)
				if tc.method != "" {
					method = tc.method
				}
				if tc.body != nil {
					body = tc.body(rt.body)
				}
				if tc.hdr != nil {
					hdr = tc.hdr(session)
				}
				status, code := post(t, srv, method, rt.path, body, hdr)
				if status != tc.wantStatus || code != tc.wantCode {
					t.Errorf("%s: got %d %q, want %d %q", rt.path, status, code, tc.wantStatus, tc.wantCode)
				}
			}
			if s, a := eng.Stats().QueriesStarted, eng.IngestStats().Appends; s != started || a != appends {
				t.Errorf("rejected requests reached the engine: queries started %d→%d, appends %d→%d",
					started, s, appends, a)
			}
		})
	}

	// Queue full: with every slot held and the waiting line at its bound,
	// a route that holds a global slot sheds; one that does not is
	// admitted whatever the queue looks like.
	t.Run("queue full", func(t *testing.T) {
		srv, session := newServer(t)
		release := srv.HoldSlots()
		waiter := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query",
				strings.NewReader(`{"sql":"SELECT count() FROM store_sales"}`)))
			waiter <- rec.Code
		}()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/health", nil))
			var h server.HealthResponse
			json.Unmarshal(rec.Body.Bytes(), &h) //nolint:errcheck // retried until the deadline
			if h.Queued == 1 && h.Inflight == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiter never queued: health %+v", h)
			}
		}
		started, appends := eng.Stats().QueriesStarted, eng.IngestStats().Appends
		for _, rt := range envelopeRoutes {
			status, code := post(t, srv, "POST", rt.path, rt.body, map[string]string{"X-Sudaf-Session": session})
			switch slotted := srv.PostRoutes()[rt.path]; {
			case slotted && (status != 429 || code != server.CodeOverloaded):
				t.Errorf("%s: got %d %q, want 429 %q", rt.path, status, code, server.CodeOverloaded)
			case !slotted && status != 200:
				t.Errorf("%s holds no global slot, yet a full queue answered %d %q", rt.path, status, code)
			}
		}
		if s, a := eng.Stats().QueriesStarted, eng.IngestStats().Appends; s != started || a != appends {
			t.Errorf("shed requests reached the engine: queries started %d→%d, appends %d→%d",
				started, s, appends, a)
		}
		release()
		if code := <-waiter; code != 200 {
			t.Errorf("queued request got %d once a slot freed, want 200", code)
		}
	})
}
