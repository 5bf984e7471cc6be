// Package client is the retrying HTTP client for the SUDAF serving
// layer. Its retry policy is driven by what the server's overload
// design guarantees:
//
//   - Queries are read-only, so ANY failure — connection refused, torn
//     stream mid-response, 429 shed, 503 drain — is safe to retry. The
//     client retries them up to Options.Retries times with
//     deterministic exponential backoff.
//   - Appends mutate state, so they are retried ONLY on typed
//     overloaded/draining rejections: the server sheds those before
//     execution, so a rejected append has provably not run. A network
//     error mid-append is ambiguous (it may have committed) and is
//     returned to the caller wrapped in ErrAmbiguous instead.
//
// Torn streams are detected by the wire protocol's length framing: a
// response that stops before its end frame, or whose frame lengths
// disagree with the bytes on the wire, surfaces as server.ErrTornStream
// and the query is retried.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sudaf/internal/errs"
	"sudaf/internal/server"
)

// ErrAmbiguous wraps an append failure where the server may or may not
// have executed the append (e.g. the connection died mid-response). The
// caller must reconcile — the client never blindly retries these.
var ErrAmbiguous = errors.New("append outcome unknown")

// ErrRetriesExhausted wraps the last error after every retry failed.
var ErrRetriesExhausted = errors.New("retries exhausted")

// Options tunes a Client. Zero values pick defaults.
type Options struct {
	// Retries is the number of retry attempts after the first failure
	// (default 4; negative = none).
	Retries int
	// Backoff is the first retry's delay; each subsequent retry doubles
	// it (default 10ms). The schedule is deterministic — no jitter — so
	// chaos tests reproduce exactly.
	Backoff time.Duration
	// HTTPClient overrides the transport (default: a dedicated
	// http.Client, so tests don't share the global keep-alive pool).
	HTTPClient *http.Client
	// Sleep overrides the backoff sleep (tests inject a recorder; nil =
	// time.Sleep honoring the context).
	Sleep func(context.Context, time.Duration)
}

// Client talks to one sudaf-serve instance.
type Client struct {
	base    string
	hc      *http.Client
	opts    Options
	session string
}

// New builds a client for the server at addr ("host:port").
func New(addr string, opts Options) *Client {
	if opts.Retries == 0 {
		opts.Retries = 4
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	if opts.Sleep == nil {
		opts.Sleep = func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
	}
	return &Client{base: "http://" + addr, hc: hc, opts: opts}
}

// Session returns the open session id ("" when sessionless).
func (c *Client) Session() string { return c.session }

// Result is a fully received query result.
type Result struct {
	Columns []server.ColumnSpec
	Rows    [][]any
	End     *server.Frame // the end frame: groups, events, stats
}

// Float returns cell (row, col) as float64; non-finite values decode
// from their wire spellings.
func (r *Result) Float(row, col int) float64 {
	v, _ := server.CellFloat(r.Rows[row][col])
	return v
}

// String returns cell (row, col) rendered as text.
func (r *Result) String(row, col int) string {
	return fmt.Sprint(r.Rows[row][col])
}

// retryQuery reports whether a query error is worth retrying. Queries
// are read-only, so everything transient qualifies: network failures,
// torn streams, overload sheds, drains.
func retryQuery(err error) bool {
	switch {
	case errors.Is(err, errs.ErrOverloaded),
		errors.Is(err, errs.ErrEngineClosed),
		errors.Is(err, server.ErrTornStream):
		return true
	case errors.Is(err, errs.ErrParse),
		errors.Is(err, errs.ErrUnknownTable),
		errors.Is(err, errs.ErrUnknownUDAF),
		errors.Is(err, errs.ErrNumericFault),
		errors.Is(err, errs.ErrCanceled):
		return false
	}
	var ne *netError
	return errors.As(err, &ne)
}

// netError marks transport-level failures (as opposed to typed server
// rejections), so the retry policy can tell them apart.
type netError struct{ err error }

func (e *netError) Error() string { return e.err.Error() }
func (e *netError) Unwrap() error { return e.err }

// IsTransport reports whether err was a transport-level failure — the
// connection refused, reset, or torn — rather than a typed server
// rejection. During a drain these are expected for callers who dial
// after the listener closed; the server guarantees any such request
// never reached execution.
func IsTransport(err error) bool {
	var ne *netError
	return errors.As(err, &ne) || errors.Is(err, server.ErrTornStream)
}

// withRetry runs op under the retry schedule, retrying while shouldRetry
// approves and attempts remain.
func (c *Client) withRetry(ctx context.Context, shouldRetry func(error) bool, op func() error) error {
	var last error
	for attempt := 0; ; attempt++ {
		last = op()
		if last == nil || !shouldRetry(last) {
			return last
		}
		if attempt >= c.opts.Retries {
			return fmt.Errorf("%w after %d attempt(s): %w", ErrRetriesExhausted, attempt+1, last)
		}
		if ctx.Err() != nil {
			return last
		}
		c.opts.Sleep(ctx, c.opts.Backoff<<attempt)
	}
}

// newRequest builds a request carrying the session header and, when ctx
// has a deadline, the X-Sudaf-Deadline-Ms header so the server bounds
// its own work even if the connection outlives the client's patience.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.session != "" {
		req.Header.Set("X-Sudaf-Session", c.session)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set("X-Sudaf-Deadline-Ms", strconv.FormatInt(ms, 10))
		}
	}
	return req, nil
}

// do sends one request and returns its 200 response. Anything else is
// an error: a netError for transport failures, and for a rejection the
// typed error its ErrorBody names — the one place wire codes turn back
// into sentinels before a stream begins.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &netError{err}
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxFrameBytes))
	if err != nil {
		return nil, &netError{err}
	}
	var eb server.ErrorBody
	if json.Unmarshal(data, &eb) == nil && eb.Code != "" {
		return nil, server.ErrorForCode(eb.Code, eb.Error)
	}
	return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
}

// doJSON sends body and decodes the JSON response into out (nil
// discards it).
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxFrameBytes))
	if err != nil {
		return &netError{err}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// stream is an open framed response. Every streamed endpoint — query,
// batch, subscribe — is read through it, so a torn stream is classified
// the same way whoever consumes it.
type stream struct {
	body io.ReadCloser
	br   *bufio.Reader
}

// open posts body to a streaming endpoint and returns its frame stream,
// or the typed error the server answered with instead of streaming. The
// caller closes the stream's body.
func (c *Client) open(ctx context.Context, path string, body []byte) (*stream, error) {
	resp, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	return &stream{body: resp.Body, br: bufio.NewReader(resp.Body)}, nil
}

// next returns the stream's next schema, batch or end frame. An error
// frame comes back as the typed error it carries. A stream that stops
// before the consumer has seen its end frame — mid-frame or cleanly at a
// frame boundary — or whose framing is inconsistent is ErrTornStream; an
// oversized frame is ErrFrameTooLarge; any other read failure is a
// transport error.
func (st *stream) next() (*server.Frame, error) {
	f, err := server.ReadFrame(st.br, 0)
	switch {
	case err == nil && f.Type == server.FrameError:
		return nil, server.ErrorForCode(f.Code, f.Error)
	case err == nil:
		return f, nil
	case err == io.EOF:
		return nil, fmt.Errorf("%w: stream ended before its end frame", server.ErrTornStream)
	case errors.Is(err, server.ErrTornStream), errors.Is(err, server.ErrFrameTooLarge):
		return nil, err
	}
	return nil, &netError{err}
}

// OpenSession opens a server-side session; subsequent requests carry
// it. Retried like a query (creating a session twice leaks at most an
// idle session slot, reaped when the client closes the one it kept).
func (c *Client) OpenSession(ctx context.Context) error {
	return c.withRetry(ctx, retryQuery, func() error {
		var sr server.SessionResponse
		if err := c.doJSON(ctx, http.MethodPost, "/v1/session", []byte("{}"), &sr); err != nil {
			return err
		}
		c.session = sr.ID
		return nil
	})
}

// CloseSession closes the client's session (no-op when sessionless).
func (c *Client) CloseSession(ctx context.Context) error {
	if c.session == "" {
		return nil
	}
	err := c.doJSON(ctx, http.MethodDelete, "/v1/session", nil, nil)
	c.session = ""
	return err
}

// Prepare registers sql as a prepared statement in the session and
// returns its handle.
func (c *Client) Prepare(ctx context.Context, sql, mode string) (string, error) {
	body, _ := json.Marshal(server.PrepareRequest{SQL: sql, Mode: mode})
	var handle string
	err := c.withRetry(ctx, retryQuery, func() error {
		var pr server.PrepareResponse
		if err := c.doJSON(ctx, http.MethodPost, "/v1/prepare", body, &pr); err != nil {
			return err
		}
		handle = pr.Handle
		return nil
	})
	return handle, err
}

// Query runs sql in the given mode ("" = share), retrying transient
// failures, and returns the fully received result.
func (c *Client) Query(ctx context.Context, sql, mode string) (*Result, error) {
	return c.query(ctx, server.QueryRequest{SQL: sql, Mode: mode})
}

// QueryPrepared runs a prepared statement by handle.
func (c *Client) QueryPrepared(ctx context.Context, handle string) (*Result, error) {
	return c.query(ctx, server.QueryRequest{Prepared: handle})
}

func (c *Client) query(ctx context.Context, qr server.QueryRequest) (*Result, error) {
	body, err := json.Marshal(qr)
	if err != nil {
		return nil, err
	}
	res, err := c.results(ctx, "/v1/query", body, 1)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// QueryBatch runs queries as one server-side batch (POST /v1/batch) in
// the given mode ("" = share) and returns one fully received result per
// query, positionally aligned. The server plans the batch's aggregation
// states together, so overlapping queries share fused scans; results
// are bit-identical to running the queries sequentially. The batch is
// all-or-nothing — any query's failure fails the whole call with that
// query's typed error. Batches are read-only and retried like queries.
func (c *Client) QueryBatch(ctx context.Context, queries []string, mode string) ([]*Result, error) {
	body, err := json.Marshal(server.BatchRequest{Queries: queries, Mode: mode})
	if err != nil {
		return nil, err
	}
	return c.results(ctx, "/v1/batch", body, len(queries))
}

// results posts body to a query endpoint and receives its n results,
// retrying transient failures. A single query is the batch of one: its
// frames carry no tag, which is query index zero.
func (c *Client) results(ctx context.Context, path string, body []byte, n int) ([]*Result, error) {
	var res []*Result
	err := c.withRetry(ctx, retryQuery, func() (err error) {
		res, err = c.resultsOnce(ctx, path, body, n)
		return err
	})
	return res, err
}

// resultsOnce performs one attempt, demultiplexing the tagged frame
// stream into per-query results. The stream must deliver every query's
// end frame; anything less is a torn stream.
func (c *Client) resultsOnce(ctx context.Context, path string, body []byte, n int) ([]*Result, error) {
	st, err := c.open(ctx, path, body)
	if err != nil {
		return nil, err
	}
	defer st.body.Close()
	results := make([]*Result, n)
	for done := 0; done < n; {
		f, err := st.next()
		if err != nil {
			return nil, err
		}
		if f.Query < 0 || f.Query >= n {
			return nil, fmt.Errorf("%w: frame for query %d of %d",
				server.ErrTornStream, f.Query, n)
		}
		r := results[f.Query]
		switch f.Type {
		case server.FrameSchema:
			results[f.Query] = &Result{Columns: f.Columns}
		case server.FrameBatch:
			if r == nil {
				return nil, fmt.Errorf("%w: batch before schema for query %d",
					server.ErrTornStream, f.Query)
			}
			r.Rows = append(r.Rows, f.Rows...)
		case server.FrameEnd:
			if r == nil || r.End != nil {
				return nil, fmt.Errorf("%w: stray end frame for query %d",
					server.ErrTornStream, f.Query)
			}
			r.End = f
			done++
		}
	}
	return results, nil
}

// retryAppend approves retry only for typed shed/drain rejections —
// the server guarantees those were rejected before execution.
func retryAppend(err error) bool {
	return errors.Is(err, errs.ErrOverloaded) || errors.Is(err, errs.ErrEngineClosed)
}

// Append sends a columnar delta for table. Transport failures are
// returned wrapped in ErrAmbiguous (the append may have committed);
// only typed pre-execution rejections are retried.
func (c *Client) Append(ctx context.Context, table string, cols []server.ColumnData) (*server.AppendResponse, error) {
	body, err := json.Marshal(server.AppendRequest{Table: table, Columns: cols})
	if err != nil {
		return nil, err
	}
	var out *server.AppendResponse
	err = c.withRetry(ctx, retryAppend, func() error {
		var ar server.AppendResponse
		if err := c.doJSON(ctx, http.MethodPost, "/v1/append", body, &ar); err != nil {
			var ne *netError
			if errors.As(err, &ne) {
				return fmt.Errorf("%w: %v", ErrAmbiguous, err)
			}
			return err
		}
		out = &ar
		return nil
	})
	return out, err
}

// Emission is one window result received on a subscription stream.
type Emission struct {
	// Rows are the emission's result rows (see Result for cell shapes).
	Rows [][]any
	// Window is the emission's provenance: Seq (contiguous from 1),
	// pinned Epoch, covered base-table rows.
	Window *server.WindowMeta
}

// Float returns cell (row, col) as float64; non-finite values decode
// from their wire spellings.
func (e *Emission) Float(row, col int) float64 {
	v, _ := server.CellFloat(e.Rows[row][col])
	return v
}

// SubStream is a live /v1/subscribe stream. Unlike queries it is never
// retried: a subscription is stateful (Seq restarts from 1 on a fresh
// subscribe), so reconnect policy belongs to the caller. Iterate with
// Next; Close releases the connection.
type SubStream struct {
	st      *stream
	columns []server.ColumnSpec
	end     *server.Frame
	closed  bool
}

// Subscribe opens a continuous windowed query (the SQL must carry an
// OVER clause). maxEmits > 0 asks the server to end the stream cleanly
// after that many emissions; 0 streams until Close, ctx cancellation,
// or server drain.
func (c *Client) Subscribe(ctx context.Context, sql, mode string, maxEmits int) (*SubStream, error) {
	body, err := json.Marshal(server.SubscribeRequest{SQL: sql, Mode: mode, MaxEmits: maxEmits})
	if err != nil {
		return nil, err
	}
	st, err := c.open(ctx, "/v1/subscribe", body)
	if err != nil {
		return nil, err
	}
	return &SubStream{st: st}, nil
}

// Next blocks for the next emission. It returns io.EOF when the server
// ended the stream cleanly (maxEmits reached or drain; End then carries
// the end frame), a typed engine error if the subscription failed, and
// ErrTornStream when the stream was cut without a terminal frame.
func (s *SubStream) Next() (*Emission, error) {
	if s.end != nil {
		return nil, io.EOF
	}
	for {
		f, err := s.st.next()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case server.FrameSchema:
			s.columns = f.Columns
		case server.FrameBatch:
			if s.columns == nil {
				return nil, fmt.Errorf("%w: batch before schema", server.ErrTornStream)
			}
			return &Emission{Rows: f.Rows, Window: f.Window}, nil
		case server.FrameEnd:
			s.end = f
			return nil, io.EOF
		}
	}
}

// Columns returns the stream's result schema (nil before the first
// emission arrives — the schema rides with it).
func (s *SubStream) Columns() []server.ColumnSpec { return s.columns }

// End returns the clean-termination frame (nil until Next returned
// io.EOF); its Events carry "server draining" when a drain ended the
// stream.
func (s *SubStream) End() *server.Frame { return s.end }

// Close releases the stream's connection. Safe to call at any point and
// more than once.
func (s *SubStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.st.body.Close()
}

// Health fetches the server's health summary (never retried — its
// point is to observe the server as it is right now).
func (c *Client) Health(ctx context.Context) (*server.HealthResponse, error) {
	var h server.HealthResponse
	if err := c.doJSON(ctx, http.MethodGet, "/v1/health", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}
