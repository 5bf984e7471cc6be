// Package server is the resilient query-serving layer over a SUDAF
// engine session: an HTTP/JSON front-end with per-client sessions and
// prepared-statement handles, length-framed NDJSON streaming for query
// results, overload shedding, and a graceful drain that hands back to
// the engine's own Close contract.
//
// Resilience model, in one place:
//
//   - Admission: requests take a global slot (Config.MaxInflight);
//     excess requests queue up to Config.QueueDepth and anything beyond
//     that is shed immediately with a typed 429 — shed work has
//     provably not executed, so clients may always retry it.
//   - Sessions additionally bound their own concurrency
//     (Config.SessionConcurrency) without queueing: one chatty client
//     sheds at its own cap instead of starving the rest.
//   - Deadlines: the X-Sudaf-Deadline-Ms request header becomes a
//     context deadline that propagates through admission queueing into
//     the engine's scan/join/accumulate loops.
//   - Drain: Shutdown stops accepting work (typed 503), wakes every
//     queued waiter, finishes all in-flight requests (bounded by the
//     caller's context) and records the drain duration. The engine is
//     NOT closed — it belongs to the caller, and its state cache stays
//     warm for the next front-end.
//   - Chaos: the listener and connections route through the
//     faultinject net.* points, so torn connections, stalled streams
//     and flaky accepts are first-class, deterministic test inputs.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sudaf/internal/core"
	"sudaf/internal/errs"
	"sudaf/internal/faultinject"
	"sudaf/internal/gate"
	"sudaf/internal/obs"
)

// Config configures a Server. The zero value of every field picks a
// sane default; only Session is required.
type Config struct {
	// Session is the engine session served. Required.
	Session *core.Session

	// MaxInflight bounds requests executing at once (0 = 16).
	MaxInflight int
	// QueueDepth bounds requests waiting for a slot before the server
	// sheds with 429 (0 = 64).
	QueueDepth int
	// MaxSessions bounds open client sessions (0 = 64).
	MaxSessions int
	// SessionConcurrency bounds one session's concurrent requests;
	// requests over the cap shed immediately (0 = unbounded).
	SessionConcurrency int
	// MaxConns bounds open TCP connections; connections over the cap are
	// refused at accept (0 = unbounded).
	MaxConns int
	// MaxRequestBytes bounds a request body (0 = 8 MiB).
	MaxRequestBytes int64
	// BatchRows is the default rows per streamed batch frame (0 = the
	// engine's batch size).
	BatchRows int

	// Metrics is the registry the server families register into
	// (nil = the session's registry). MetricsLabel distinguishes several
	// servers sharing one registry.
	Metrics      *obs.Registry
	MetricsLabel string
}

// Server is one HTTP serving front-end over an engine session.
type Server struct {
	cfg      Config
	eng      *core.Session
	sessions *sessions
	httpSrv  *http.Server
	ln       net.Listener

	// gate tracks requests for the drain; slots are the global execution
	// slots and queue their bounded waiting line. All three are instances
	// of the mechanism the engine session uses (internal/gate).
	gate  *gate.Gate
	slots gate.Slots
	queue gate.Queue
	// unused holds the connections no request has been read from yet;
	// Shutdown closes them instead of waiting 5 s for each.
	unused unusedConns

	// Metrics counters (reader-backed; see metrics.go).
	queryReqs       atomic.Int64
	appendReqs      atomic.Int64
	batchReqs       atomic.Int64
	batchQueries    atomic.Int64
	subscribeReqs   atomic.Int64
	subscribeEmits  atomic.Int64
	subscribeActive atomic.Int64
	frameBytes      atomic.Int64
	shedQueue       atomic.Int64
	shedSession     atomic.Int64
	shedDraining    atomic.Int64
	shedConns       atomic.Int64
	connsOpen       atomic.Int64
}

// New builds a server over cfg.Session. Call Start to begin serving.
func New(cfg Config) (*Server, error) {
	if cfg.Session == nil {
		return nil, fmt.Errorf("server: Config.Session is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 16
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = MaxFrameBytes
	}
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Session,
		sessions: newSessions(cfg.MaxSessions, cfg.SessionConcurrency),
		gate:     gate.New(),
		slots:    make(gate.Slots, cfg.MaxInflight),
		queue:    gate.Queue{Max: cfg.QueueDepth},
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = cfg.Session.Metrics()
	}
	s.registerMetrics(reg, cfg.MetricsLabel)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("DELETE /v1/session", s.closeSession)
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.path, func(w http.ResponseWriter, r *http.Request) { s.serve(&rt, w, r) })
	}
	s.httpSrv = &http.Server{Handler: mux, ConnState: s.unused.track}
	return s, nil
}

// unusedConns tracks the connections in http.StateNew — accepted, first
// request header not yet read: a client pool's spare connection, a port
// probe, or a request the server has not got round to reading. During a
// drain http.Server.Shutdown counts one as busy until it is 5 s old,
// which made a forced drain take either milliseconds or ~5.8 s. Once the
// admitted requests have finished, Shutdown closes them instead. No
// request has been taken from one, so closing it cannot tear an answered
// request or a response; its client sees what a dial to the closed
// listener sees.
type unusedConns struct {
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool // closeAll has run: close whatever is still accepted
}

// track is the http.Server ConnState hook.
func (u *unusedConns) track(c net.Conn, st http.ConnState) {
	if st == http.StateIdle || st == http.StateHijacked {
		return // follow StateActive, never StateNew
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(u.conns, c)
	case u.closing:
		c.Close()
	default:
		if u.conns == nil {
			u.conns = map[net.Conn]struct{}{}
		}
		u.conns[c] = struct{}{}
	}
}

// closeAll closes every unused connection, present and future.
func (u *unusedConns) closeAll() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.closing = true
	for c := range u.conns {
		c.Close()
	}
	u.conns = nil
}

// Start listens on addr (use "127.0.0.1:0" to pick a free port — the
// bound address is Addr) and serves in a background goroutine until
// Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = &chaosListener{Listener: ln, srv: s}
	go s.httpSrv.Serve(s.ln) //nolint:errcheck // ErrServerClosed on Shutdown
	return nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully drains the server: new requests are rejected with
// a typed 503, queued admission waiters wake and shed, in-flight
// requests (including mid-stream queries) run to completion, and open
// sessions are then closed. Bounded by ctx: on expiry Shutdown returns
// the context error while stragglers keep honoring their own deadlines.
//
// Shutdown is idempotent and does NOT close the engine session — the
// engine outlives its front-ends, keeping the state cache warm.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.gate.Drain()
	// Our own request tracking covers handlers even if their connection
	// was hijacked or torn. Once every admitted request has finished, the
	// connections no request was read from go (see unusedConns); those
	// mid-request or mid-response are left to http.Shutdown.
	drained := make(chan error, 1)
	go func() {
		err := s.gate.Wait(ctx)
		if err == nil {
			s.unused.closeAll()
		}
		drained <- err
	}()
	// Stop the listener and wait for connections; http.Shutdown returns
	// early with ctx's error if the drain outlives it.
	httpErr := s.httpSrv.Shutdown(ctx)
	if err := <-drained; err != nil {
		return fmt.Errorf("server shutdown: drain incomplete: %w", err)
	}
	if httpErr != nil {
		return fmt.Errorf("server shutdown: %w", httpErr)
	}
	s.sessions.closeAll()
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.gate.Draining() }

// route is one POST endpoint: all the envelope needs to know about it.
type route struct {
	path string
	// decode validates the request body; a failure is a 400.
	decode func(body []byte) (*call, error)
	// slot says whether the request holds a global execution slot while
	// it runs. It is a property of the endpoint, not a setting:
	// /v1/subscribe is a long-lived push stream (see subscribe.go), and
	// opening a session or preparing a statement executes nothing.
	slot bool
	// accepted counts the requests admitted to run (nil = uncounted).
	accepted *atomic.Int64
	// sessionless marks the one request that cannot be made inside a
	// session because it opens one: a session header left over from an
	// earlier, possibly expired, session is ignored.
	sessionless bool
}

// call is one decoded request: what to run and how to answer.
type call struct {
	// session is the body's session field ("" = none named).
	session string
	// bind, when set, resolves what the request names inside its session
	// (nil when sessionless) before admission.
	bind func(ss *session) *reject
	// run executes the admitted request and writes the response.
	run func(ctx context.Context, w http.ResponseWriter)
}

// reject is a failure to bind, carrying its own wire code.
type reject struct{ code, msg string }

func (s *Server) routes() []route {
	return []route{
		{path: "/v1/session", decode: s.sessionCall, sessionless: true},
		{path: "/v1/prepare", decode: s.prepareCall},
		{path: "/v1/query", decode: s.queryCall, slot: true, accepted: &s.queryReqs},
		{path: "/v1/batch", decode: s.batchCall, slot: true, accepted: &s.batchReqs},
		{path: "/v1/append", decode: s.appendCall, slot: true, accepted: &s.appendReqs},
		{path: "/v1/subscribe", decode: s.subscribeCall, accepted: &s.subscribeReqs},
	}
}

// serve is the one way into the server for a POST request. Every route
// passes the same steps in the same order: validate (method, bounded
// body, strict decode, deadline header) → session → drain gate →
// session slot → deadline → global slot → count → run. A request
// rejected at any step has provably not reached the engine.
func (s *Server) serve(rt *route, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, CodeBadRequest, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		writeErrorCode(w, CodeBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	c, err := rt.decode(body)
	if err != nil {
		writeErrorCode(w, CodeBadRequest, err.Error())
		return
	}
	deadline, err := requestDeadline(r)
	if err != nil {
		writeErrorCode(w, CodeBadRequest, err.Error())
		return
	}

	var ss *session
	if id := sessionID(r, c.session); id != "" && !rt.sessionless {
		if ss = s.sessions.get(id); ss == nil {
			writeErrorCode(w, CodeUnknownSession, fmt.Sprintf("no session %q", id))
			return
		}
	}
	if c.bind != nil {
		if rj := c.bind(ss); rj != nil {
			writeErrorCode(w, rj.code, rj.msg)
			return
		}
	}

	if err := s.gate.Begin(); err != nil {
		s.shedDraining.Add(1)
		writeError(w, fmt.Errorf("server: %w", err))
		return
	}
	defer s.gate.End()
	// A session's slots have no waiting line: a session at its cap sheds
	// (the global queue already provides the buffering — stacking a
	// second queue here would just hide the overload).
	if ss != nil {
		if _, err := ss.slots.Acquire(r.Context(), s.gate, &ss.queue); err != nil {
			s.shedSession.Add(1)
			writeError(w, fmt.Errorf("session %s at its concurrency cap: %w", ss.id, err))
			return
		}
		defer ss.slots.Release()
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	if rt.slot {
		if _, err := s.slots.Acquire(ctx, s.gate, &s.queue); err != nil {
			switch {
			case errors.Is(err, errs.ErrOverloaded):
				s.shedQueue.Add(1)
			case errors.Is(err, errs.ErrEngineClosed):
				s.shedDraining.Add(1)
			}
			writeError(w, fmt.Errorf("server admission: %w", err))
			return
		}
		defer s.slots.Release()
	}
	if rt.accepted != nil {
		rt.accepted.Add(1)
	}
	c.run(ctx, w)
}

// requestDeadline parses the X-Sudaf-Deadline-Ms header: the bound the
// client asked for, which propagates through queueing into the engine.
// A header that is not a positive integer is an error — running the
// request unbounded would silently drop what the client asked for — and
// so is one too large for a time.Duration, which would wrap negative and
// run the request already expired.
func requestDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-Sudaf-Deadline-Ms")
	if h == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("X-Sudaf-Deadline-Ms %q is not a positive integer", h)
	}
	if time.Duration(ms) > math.MaxInt64/time.Millisecond {
		return 0, fmt.Errorf("X-Sudaf-Deadline-Ms %q overflows a duration", h)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// sessionID resolves the request's session id: the X-Sudaf-Session
// header wins over the body field.
func sessionID(r *http.Request, body string) string {
	if h := r.Header.Get("X-Sudaf-Session"); h != "" {
		return h
	}
	return body
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

// writeErrorCode reports a pre-streaming failure: HTTP status from the
// wire code, JSON ErrorBody so typed errors survive the trip.
func writeErrorCode(w http.ResponseWriter, code, msg string) {
	writeJSON(w, HTTPStatusForCode(code), ErrorBody{Code: code, Error: msg})
}

func writeError(w http.ResponseWriter, err error) {
	writeErrorCode(w, CodeForError(err), err.Error())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:       status,
		SessionsOpen: int64(s.sessions.numOpen()),
		Inflight:     int64(len(s.slots)),
		Queued:       s.queue.Len(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Stats())
}

// closeSession answers DELETE /v1/session.
func (s *Server) closeSession(w http.ResponseWriter, r *http.Request) {
	id := sessionID(r, r.URL.Query().Get("id"))
	if id == "" || !s.sessions.close(id) {
		writeErrorCode(w, CodeUnknownSession, fmt.Sprintf("no session %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

// sessionCall opens a session (POST /v1/session; the body is ignored).
func (s *Server) sessionCall([]byte) (*call, error) {
	return &call{run: func(_ context.Context, w http.ResponseWriter) {
		ss, err := s.sessions.create()
		if err != nil {
			writeErrorCode(w, CodeOverloaded, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, SessionResponse{ID: ss.id})
	}}, nil
}

func (s *Server) prepareCall(body []byte) (*call, error) {
	req, err := DecodePrepareRequest(body)
	if err != nil {
		return nil, err
	}
	var in *session
	return &call{
		session: req.Session,
		bind: func(ss *session) *reject {
			if in = ss; in == nil {
				return &reject{CodeUnknownSession, `no session ""`}
			}
			return nil
		},
		run: func(_ context.Context, w http.ResponseWriter) {
			mode, _ := ModeFromString(req.Mode)
			handle, err := in.prepare(req.SQL, mode)
			if err != nil {
				writeError(w, fmt.Errorf("%w: %v", errs.ErrParse, err))
				return
			}
			writeJSON(w, http.StatusOK, PrepareResponse{Handle: handle})
		},
	}, nil
}

func (s *Server) queryCall(body []byte) (*call, error) {
	req, err := DecodeQueryRequest(body)
	if err != nil {
		return nil, err
	}
	sql, mode := req.SQL, core.ModeShare
	if req.SQL != "" {
		mode, _ = ModeFromString(req.Mode)
	}
	return &call{
		session: req.Session,
		// Prepared handles live in a session's namespace.
		bind: func(ss *session) *reject {
			if req.Prepared == "" {
				return nil
			}
			if ss == nil {
				return &reject{CodeBadRequest, "prepared statements require a session"}
			}
			p, ok := ss.lookup(req.Prepared)
			if !ok {
				return &reject{CodeUnknownPrepared, fmt.Sprintf("no prepared statement %q", req.Prepared)}
			}
			sql, mode = p.sql, p.mode
			return nil
		},
		run: func(ctx context.Context, w http.ResponseWriter) {
			res, err := s.eng.QueryContext(ctx, sql, mode)
			if err != nil {
				writeError(w, err)
				return
			}
			s.streamResults(w, []*core.Result{res}, req.BatchRows)
		},
	}, nil
}

// batchCall runs one multi-query batch through Engine.QueryBatch: the
// whole batch occupies a single execution slot (its internal fan-out is
// the engine's to schedule). QueryBatch is all-results-or-one-error, so
// a failed batch reports one typed error for the lot.
func (s *Server) batchCall(body []byte) (*call, error) {
	req, err := DecodeBatchRequest(body)
	if err != nil {
		return nil, err
	}
	return &call{
		session: req.Session,
		run: func(ctx context.Context, w http.ResponseWriter) {
			s.batchQueries.Add(int64(len(req.Queries)))
			mode, _ := ModeFromString(req.Mode)
			reqs := make([]core.Request, len(req.Queries))
			for i, q := range req.Queries {
				reqs[i] = core.Request{SQL: q, Mode: mode}
			}
			results, err := s.eng.QueryBatch(ctx, reqs, mode)
			if err != nil {
				writeError(w, err)
				return
			}
			s.streamResults(w, results, req.BatchRows)
		},
	}, nil
}

func (s *Server) appendCall(body []byte) (*call, error) {
	req, delta, err := decodeAppend(body)
	if err != nil {
		return nil, err
	}
	return &call{
		session: req.Session,
		run: func(ctx context.Context, w http.ResponseWriter) {
			res, err := s.eng.Append(ctx, req.Table, delta)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, AppendResponse{
				Table:              res.Table,
				RowsAppended:       res.RowsAppended,
				OldEpoch:           res.OldEpoch,
				NewEpoch:           res.NewEpoch,
				EntriesMigrated:    res.EntriesMigrated,
				StatesMaintained:   res.StatesMaintained,
				EntriesInvalidated: res.EntriesInvalidated,
				ViewsMaintained:    res.ViewsMaintained,
				ViewsInvalidated:   res.ViewsInvalidated,
				Events:             res.Events,
			})
		},
	}, nil
}

// startStream begins an NDJSON response and returns the frame emitter.
// Every frame passes the net.stall fault point first — an injected
// error truncates the stream mid-flight (the client detects the tear
// via length framing), a delay stalls it. Written payload bytes count
// into sudaf_server_frame_bytes_total.
func (s *Server) startStream(w http.ResponseWriter) func(*Frame) bool {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	return func(f *Frame) bool {
		if err := hitNet(faultinject.PointNetStall); err != nil {
			return false // torn stream: stop without the end frame
		}
		n, err := writeFrame(w, f)
		if err != nil {
			return false // client went away
		}
		s.frameBytes.Add(int64(n))
		if fl != nil {
			fl.Flush()
		}
		return true
	}
}

// streamResults writes the framed response for results: each one's
// schema → batches → end sub-stream in order, every frame tagged with
// its result's index. A single query is the one-result case, whose tag
// (zero) does not appear on the wire. batchRows bounds the rows per
// batch frame (0 = the server default, then the engine's batch size).
func (s *Server) streamResults(w http.ResponseWriter, results []*core.Result, batchRows int) {
	if batchRows == 0 {
		batchRows = s.cfg.BatchRows
	}
	emit := s.startStream(w)
	for qi, res := range results {
		tagged := func(f *Frame) bool { f.Query = qi; return emit(f) }
		if !tagged(SchemaFrame(res.Table)) {
			return
		}
		for cur := res.Batches(batchRows); cur.Next(); {
			if !tagged(BatchFrame(cur.Batch())) {
				return
			}
		}
		if !tagged(EndFrame(res)) {
			return
		}
	}
}
