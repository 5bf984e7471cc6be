// Wire protocol: JSON requests over HTTP, length-framed NDJSON
// responses for streamed query results.
//
// A query response is a sequence of frames, one per line, each line
// carrying its own byte length so a torn connection is detectable:
//
//	<decimal byte length> <json>\n
//
// The JSON payload is a Frame. A well-formed stream is
//
//	schema (batch)* (end | error)
//
// and a stream that stops before its end/error frame — or whose length
// prefix disagrees with the bytes that follow — was torn mid-flight;
// the client surfaces ErrTornStream and may retry (queries are
// read-only). Errors are classified by a short machine-readable code
// that maps 1:1 onto the engine's typed sentinels, so errors.Is keeps
// working across the network boundary.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"sudaf/internal/core"
	"sudaf/internal/errs"
	"sudaf/internal/storage"
)

// MaxFrameBytes is the default bound on one frame's JSON payload, for
// both writers and readers; oversized frames are a protocol error.
const MaxFrameBytes = 8 << 20

// Error codes carried in error frames and error response bodies.
const (
	// CodeParse: the SQL failed to parse (ErrParse).
	CodeParse = "parse"
	// CodeUnknownTable: FROM names an unregistered table (ErrUnknownTable).
	CodeUnknownTable = "unknown_table"
	// CodeUnknownUDAF: an aggregate is neither built-in nor registered
	// (ErrUnknownUDAF).
	CodeUnknownUDAF = "unknown_udaf"
	// CodeNumericFault: strict numeric policy rejected a NaN/±Inf output
	// (ErrNumericFault).
	CodeNumericFault = "numeric_fault"
	// CodeCanceled: the request's context/deadline stopped the query
	// (ErrCanceled).
	CodeCanceled = "canceled"
	// CodeClosed: the engine or server is closed/draining
	// (ErrEngineClosed).
	CodeClosed = "closed"
	// CodeOverloaded: shed by overload protection before execution
	// (ErrOverloaded).
	CodeOverloaded = "overloaded"
	// CodeBadRequest: malformed request body, unknown mode, oversized
	// payload.
	CodeBadRequest = "bad_request"
	// CodeUnknownSession: the named session does not exist (expired,
	// closed, or never created).
	CodeUnknownSession = "unknown_session"
	// CodeUnknownPrepared: the named prepared-statement handle does not
	// exist in the session.
	CodeUnknownPrepared = "unknown_prepared"
	// CodeInternal: everything else.
	CodeInternal = "internal"
)

// Frame types.
const (
	FrameSchema = "schema"
	FrameBatch  = "batch"
	FrameEnd    = "end"
	FrameError  = "error"
)

// ColumnSpec describes one result (or append) column on the wire.
type ColumnSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "float" | "int" | "string"
}

// QueryStatsWire is the end frame's per-query observability record.
type QueryStatsWire struct {
	WallMicros      int64 `json:"wallMicros"`
	QueueWaitMicros int64 `json:"queueWaitMicros,omitempty"`
	RowsScanned     int   `json:"rowsScanned"`
	CacheExactHits  int   `json:"cacheExactHits,omitempty"`
	CacheSharedHits int   `json:"cacheSharedHits,omitempty"`
	CacheSignHits   int   `json:"cacheSignHits,omitempty"`
	CacheMisses     int   `json:"cacheMisses,omitempty"`
}

// Frame is one line of a streamed query response.
type Frame struct {
	Type string `json:"type"`
	// Query is the batch index the frame belongs to; single-query
	// streams leave it zero. A /v1/batch response is each query's
	// schema (batch)* end sub-stream in batch order, every frame
	// tagged, terminated early by one error frame for the whole batch.
	Query int `json:"query,omitempty"`
	// schema
	Columns []ColumnSpec `json:"columns,omitempty"`
	// batch: row-major cells; floats are numbers except NaN/±Inf, which
	// arrive as the strings "NaN", "+Inf", "-Inf".
	Rows [][]any `json:"rows,omitempty"`
	// end
	Groups       int             `json:"groups,omitempty"`
	FullCacheHit bool            `json:"fullCacheHit,omitempty"`
	UsedView     string          `json:"usedView,omitempty"`
	Events       []string        `json:"events,omitempty"`
	Stats        *QueryStatsWire `json:"stats,omitempty"`
	// error
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
	// Window tags a /v1/subscribe batch frame with its emission
	// provenance; nil on plain query streams.
	Window *WindowMeta `json:"window,omitempty"`
}

// WindowMeta is one subscription emission's provenance: its position in
// the stream (Seq, contiguous from 1 — a gap means frames were lost),
// the pinned table version it was computed against, and the absolute
// base-table rows the emission's windows cover.
type WindowMeta struct {
	Seq           int64 `json:"seq"`
	Epoch         int64 `json:"epoch"`
	FirstRow      int   `json:"firstRow"`
	LastRow       int   `json:"lastRow"`
	NumericFaults int   `json:"numericFaults,omitempty"`
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// SQL is the statement to run; mutually exclusive with Prepared.
	SQL string `json:"sql,omitempty"`
	// Prepared names a prepared-statement handle in the request's
	// session.
	Prepared string `json:"prepared,omitempty"`
	// Mode is "baseline", "rewrite" or "share" (default "share");
	// ignored for prepared statements, which fixed their mode at
	// prepare time.
	Mode string `json:"mode,omitempty"`
	// Session is the session id; optional for plain SQL (sessionless
	// requests count only against global caps), required for Prepared.
	// The X-Sudaf-Session header takes precedence.
	Session string `json:"session,omitempty"`
	// BatchRows bounds rows per batch frame (0 = server default).
	BatchRows int `json:"batchRows,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: one multi-query batch
// submitted for shared planning (Engine.QueryBatch). All queries run
// under one mode and one catalog snapshot; the batch occupies a single
// server execution slot.
type BatchRequest struct {
	// Queries are the statements, in order; responses tag frames with
	// each query's index here.
	Queries []string `json:"queries"`
	// Mode is "baseline", "rewrite" or "share" (default "share"),
	// applied to the whole batch.
	Mode string `json:"mode,omitempty"`
	// Session is the session id (optional; the X-Sudaf-Session header
	// takes precedence).
	Session string `json:"session,omitempty"`
	// BatchRows bounds rows per batch frame (0 = server default).
	BatchRows int `json:"batchRows,omitempty"`
}

// SubscribeRequest is the body of POST /v1/subscribe: a continuous
// windowed query (the SQL must carry an OVER clause). The response is a
// long-lived NDJSON stream — schema on the first emission, then one
// batch frame per WindowResult, each tagged with WindowMeta — ended by
// an end frame (MaxEmits reached or server drain) or an error frame.
type SubscribeRequest struct {
	SQL string `json:"sql"`
	// Mode is "baseline", "rewrite" or "share" (default "share").
	Mode string `json:"mode,omitempty"`
	// Session is the session id (optional; the X-Sudaf-Session header
	// takes precedence).
	Session string `json:"session,omitempty"`
	// MaxEmits closes the stream cleanly after that many emissions
	// (0 = until the client disconnects or the server drains).
	MaxEmits int `json:"maxEmits,omitempty"`
}

// PrepareRequest is the body of POST /v1/prepare.
type PrepareRequest struct {
	Session string `json:"session,omitempty"`
	SQL     string `json:"sql"`
	Mode    string `json:"mode,omitempty"`
}

// PrepareResponse is the body answering POST /v1/prepare.
type PrepareResponse struct {
	Handle string `json:"handle"`
}

// SessionResponse is the body answering POST /v1/session.
type SessionResponse struct {
	ID string `json:"id"`
}

// ColumnData is one column of an append delta, columnar on the wire.
type ColumnData struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	Floats  []float64 `json:"floats,omitempty"`
	Ints    []int64   `json:"ints,omitempty"`
	Strings []string  `json:"strings,omitempty"`
}

// AppendRequest is the body of POST /v1/append.
type AppendRequest struct {
	Session string       `json:"session,omitempty"`
	Table   string       `json:"table"`
	Columns []ColumnData `json:"columns"`
}

// AppendResponse is the body answering POST /v1/append.
type AppendResponse struct {
	Table              string   `json:"table"`
	RowsAppended       int      `json:"rowsAppended"`
	OldEpoch           int64    `json:"oldEpoch"`
	NewEpoch           int64    `json:"newEpoch"`
	EntriesMigrated    int      `json:"entriesMigrated,omitempty"`
	StatesMaintained   int      `json:"statesMaintained,omitempty"`
	EntriesInvalidated int      `json:"entriesInvalidated,omitempty"`
	ViewsMaintained    int      `json:"viewsMaintained,omitempty"`
	ViewsInvalidated   int      `json:"viewsInvalidated,omitempty"`
	Events             []string `json:"events,omitempty"`
}

// ErrorBody is the JSON body of a non-200 response (errors detected
// before streaming began).
type ErrorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// HealthResponse is the body answering GET /v1/health.
type HealthResponse struct {
	Status       string `json:"status"` // "ok" | "draining"
	SessionsOpen int64  `json:"sessionsOpen"`
	Inflight     int64  `json:"inflight"`
	Queued       int64  `json:"queued"`
}

// ModeFromString maps a wire mode name onto core.Mode; empty means
// Share.
func ModeFromString(s string) (core.Mode, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "share", "sudaf-share":
		return core.ModeShare, true
	case "rewrite", "noshare", "sudaf-noshare":
		return core.ModeRewrite, true
	case "baseline":
		return core.ModeBaseline, true
	}
	return 0, false
}

// CodeForError classifies an engine error under a wire code.
func CodeForError(err error) string {
	switch {
	case errors.Is(err, errs.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, errs.ErrEngineClosed):
		return CodeClosed
	case errors.Is(err, errs.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	case errors.Is(err, errs.ErrParse):
		return CodeParse
	case errors.Is(err, errs.ErrUnknownTable):
		return CodeUnknownTable
	case errors.Is(err, errs.ErrUnknownUDAF):
		return CodeUnknownUDAF
	case errors.Is(err, errs.ErrNumericFault):
		return CodeNumericFault
	}
	return CodeInternal
}

// ErrorForCode reconstructs a typed error from a wire code, wrapping
// the matching sentinel so errors.Is classification survives the trip.
func ErrorForCode(code, msg string) error {
	var sentinel error
	switch code {
	case CodeOverloaded:
		sentinel = errs.ErrOverloaded
	case CodeClosed:
		sentinel = errs.ErrEngineClosed
	case CodeCanceled:
		sentinel = errs.ErrCanceled
	case CodeParse:
		sentinel = errs.ErrParse
	case CodeUnknownTable:
		sentinel = errs.ErrUnknownTable
	case CodeUnknownUDAF:
		sentinel = errs.ErrUnknownUDAF
	case CodeNumericFault:
		sentinel = errs.ErrNumericFault
	default:
		return fmt.Errorf("server error [%s]: %s", code, msg)
	}
	return fmt.Errorf("%w: %s", sentinel, msg)
}

// HTTPStatusForCode maps a wire code onto the HTTP status used when the
// error is reported before streaming begins.
func HTTPStatusForCode(code string) int {
	switch code {
	case CodeOverloaded:
		return 429
	case CodeClosed:
		return 503
	case CodeCanceled:
		return 408
	case CodeUnknownSession, CodeUnknownPrepared, CodeUnknownTable, CodeUnknownUDAF:
		return 404
	case CodeParse, CodeNumericFault, CodeBadRequest:
		return 400
	}
	return 500
}

// WriteFrame length-frames one frame onto w: "<len> <json>\n".
func WriteFrame(w io.Writer, f *Frame) error {
	js, err := json.Marshal(f)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%d %s\n", len(js), js)
	return err
}

// Frame read errors.
var (
	// ErrTornStream reports a response stream that ended or corrupted
	// mid-frame — the wire-level signature of a torn connection.
	ErrTornStream = errors.New("torn response stream")
	// ErrFrameTooLarge reports a frame whose declared length exceeds the
	// reader's bound.
	ErrFrameTooLarge = errors.New("frame exceeds size bound")
)

// ReadFrame reads one length-framed frame from br, enforcing maxLen
// (<=0 uses MaxFrameBytes). io.EOF at a frame boundary is returned
// verbatim; any mid-frame truncation or framing mismatch wraps
// ErrTornStream.
func ReadFrame(br *bufio.Reader, maxLen int) (*Frame, error) {
	if maxLen <= 0 {
		maxLen = MaxFrameBytes
	}
	// Length prefix: ASCII decimal up to the separating space.
	n := 0
	digits := 0
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && digits == 0 {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("%w: reading length prefix: %v", ErrTornStream, err)
		}
		if b == ' ' {
			if digits == 0 {
				return nil, fmt.Errorf("%w: empty length prefix", ErrTornStream)
			}
			break
		}
		if b < '0' || b > '9' {
			return nil, fmt.Errorf("%w: bad length prefix byte %q", ErrTornStream, b)
		}
		digits++
		if digits > 9 { // > 999,999,999 bytes is nonsense before overflow
			return nil, fmt.Errorf("%w: declared %d+ digit frame length", ErrFrameTooLarge, digits)
		}
		n = n*10 + int(b-'0')
	}
	if n > maxLen {
		return nil, fmt.Errorf("%w: declared %d bytes, bound %d", ErrFrameTooLarge, n, maxLen)
	}
	buf := make([]byte, n+1) // +1 for the trailing newline
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("%w: frame body: %v", ErrTornStream, err)
	}
	if buf[n] != '\n' {
		return nil, fmt.Errorf("%w: frame not newline-terminated", ErrTornStream)
	}
	f, err := DecodeFrame(buf[:n])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTornStream, err)
	}
	return f, nil
}

// DecodeFrame parses one frame payload (without the length prefix).
func DecodeFrame(data []byte) (*Frame, error) {
	var f Frame
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	switch f.Type {
	case FrameSchema, FrameBatch, FrameEnd, FrameError:
		return &f, nil
	}
	return nil, fmt.Errorf("unknown frame type %q", f.Type)
}

// DecodeQueryRequest parses and validates a query request body.
func DecodeQueryRequest(data []byte) (*QueryRequest, error) {
	var q QueryRequest
	if err := strictUnmarshal(data, &q); err != nil {
		return nil, err
	}
	if (q.SQL == "") == (q.Prepared == "") {
		return nil, fmt.Errorf("exactly one of sql and prepared must be set")
	}
	if _, ok := ModeFromString(q.Mode); !ok {
		return nil, fmt.Errorf("unknown mode %q", q.Mode)
	}
	if q.BatchRows < 0 {
		return nil, fmt.Errorf("negative batchRows")
	}
	return &q, nil
}

// DecodeBatchRequest parses and validates a batch request body.
func DecodeBatchRequest(data []byte) (*BatchRequest, error) {
	var b BatchRequest
	if err := strictUnmarshal(data, &b); err != nil {
		return nil, err
	}
	if len(b.Queries) == 0 {
		return nil, fmt.Errorf("empty queries")
	}
	for i, q := range b.Queries {
		if strings.TrimSpace(q) == "" {
			return nil, fmt.Errorf("query %d is empty", i)
		}
	}
	if _, ok := ModeFromString(b.Mode); !ok {
		return nil, fmt.Errorf("unknown mode %q", b.Mode)
	}
	if b.BatchRows < 0 {
		return nil, fmt.Errorf("negative batchRows")
	}
	return &b, nil
}

// DecodeSubscribeRequest parses and validates a subscribe request body.
func DecodeSubscribeRequest(data []byte) (*SubscribeRequest, error) {
	var sr SubscribeRequest
	if err := strictUnmarshal(data, &sr); err != nil {
		return nil, err
	}
	if sr.SQL == "" {
		return nil, fmt.Errorf("empty sql")
	}
	if _, ok := ModeFromString(sr.Mode); !ok {
		return nil, fmt.Errorf("unknown mode %q", sr.Mode)
	}
	if sr.MaxEmits < 0 {
		return nil, fmt.Errorf("negative maxEmits")
	}
	return &sr, nil
}

// DecodePrepareRequest parses and validates a prepare request body.
func DecodePrepareRequest(data []byte) (*PrepareRequest, error) {
	var p PrepareRequest
	if err := strictUnmarshal(data, &p); err != nil {
		return nil, err
	}
	if p.SQL == "" {
		return nil, fmt.Errorf("empty sql")
	}
	if _, ok := ModeFromString(p.Mode); !ok {
		return nil, fmt.Errorf("unknown mode %q", p.Mode)
	}
	return &p, nil
}

// DecodeAppendRequest parses and validates an append request body.
func DecodeAppendRequest(data []byte) (*AppendRequest, error) {
	a, _, err := decodeAppend(data)
	return a, err
}

// decodeAppend is DecodeAppendRequest keeping the delta table that
// validating the columns builds, so the server builds it once.
func decodeAppend(data []byte) (*AppendRequest, *storage.Table, error) {
	var a AppendRequest
	if err := strictUnmarshal(data, &a); err != nil {
		return nil, nil, err
	}
	if a.Table == "" {
		return nil, nil, fmt.Errorf("empty table")
	}
	if len(a.Columns) == 0 {
		return nil, nil, fmt.Errorf("no columns")
	}
	delta, err := a.ToTable()
	if err != nil {
		return nil, nil, err
	}
	return &a, delta, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing
// garbage, so typos in hand-written clients fail loudly.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// KindFromString maps a wire kind name onto a storage kind.
func KindFromString(s string) (storage.Kind, bool) {
	switch s {
	case "float":
		return storage.KindFloat, true
	case "int":
		return storage.KindInt, true
	case "string":
		return storage.KindString, true
	}
	return 0, false
}

// kindString renders a storage kind for the wire.
func kindString(k storage.Kind) string {
	switch k {
	case storage.KindInt:
		return "int"
	case storage.KindString:
		return "string"
	}
	return "float"
}

// ToTable materializes an append delta as a storage table, validating
// kinds and per-column lengths.
func (a *AppendRequest) ToTable() (*storage.Table, error) {
	cols := make([]*storage.Column, len(a.Columns))
	rows := -1
	for i, cd := range a.Columns {
		kind, ok := KindFromString(cd.Kind)
		if !ok {
			return nil, fmt.Errorf("column %s: unknown kind %q", cd.Name, cd.Kind)
		}
		c := storage.NewColumn(cd.Name, kind)
		n := 0
		switch kind {
		case storage.KindFloat:
			for _, v := range cd.Floats {
				c.AppendFloat(v)
			}
			n = len(cd.Floats)
		case storage.KindInt:
			for _, v := range cd.Ints {
				c.AppendInt(v)
			}
			n = len(cd.Ints)
		default:
			for _, v := range cd.Strings {
				c.AppendString(v)
			}
			n = len(cd.Strings)
		}
		if rows >= 0 && n != rows {
			return nil, fmt.Errorf("column %s: %d values, want %d", cd.Name, n, rows)
		}
		rows = n
		cols[i] = c
	}
	t := storage.NewTable(a.Table, cols...)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// SchemaFrame builds the schema frame for a result table.
func SchemaFrame(t *storage.Table) *Frame {
	cols := make([]ColumnSpec, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = ColumnSpec{Name: c.Name, Kind: kindString(c.Kind)}
	}
	return &Frame{Type: FrameSchema, Columns: cols}
}

// BatchFrame renders a result batch row-major. Non-finite floats are
// encoded as the strings "NaN", "+Inf", "-Inf" — JSON has no spelling
// for them.
func BatchFrame(b *storage.Table) *Frame {
	n := b.NumRows()
	rows := make([][]any, n)
	for i := 0; i < n; i++ {
		row := make([]any, len(b.Cols))
		for j, c := range b.Cols {
			switch c.Kind {
			case storage.KindString:
				row[j] = c.StringAt(i)
			case storage.KindInt:
				row[j] = c.AsInt(i)
			default:
				v := c.AsFloat(i)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					row[j] = nonFiniteString(v)
				} else {
					row[j] = v
				}
			}
		}
		rows[i] = row
	}
	return &Frame{Type: FrameBatch, Rows: rows}
}

func nonFiniteString(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return "NaN"
}

// CellFloat decodes a batch cell as float64, accepting the non-finite
// string spellings BatchFrame emits (and json.Number-free decoding's
// float64s).
func CellFloat(cell any) (float64, bool) {
	switch v := cell.(type) {
	case float64:
		return v, true
	case string:
		switch v {
		case "NaN":
			return math.NaN(), true
		case "+Inf":
			return math.Inf(1), true
		case "-Inf":
			return math.Inf(-1), true
		}
	}
	return 0, false
}

// EndFrame builds the terminal frame for a successful query.
func EndFrame(res *core.Result) *Frame {
	return &Frame{
		Type:         FrameEnd,
		Groups:       res.Groups,
		FullCacheHit: res.FullCacheHit,
		UsedView:     res.UsedView,
		Events:       res.Events,
		Stats: &QueryStatsWire{
			WallMicros:      res.Stats.WallTime.Microseconds(),
			QueueWaitMicros: res.Stats.QueueWait.Microseconds(),
			RowsScanned:     res.Stats.RowsScanned,
			CacheExactHits:  res.Stats.CacheExactHits,
			CacheSharedHits: res.Stats.CacheSharedHits,
			CacheSignHits:   res.Stats.CacheSignHits,
			CacheMisses:     res.Stats.CacheMisses,
		},
	}
}

// ErrorFrame builds the terminal frame for a failed query.
func ErrorFrame(err error) *Frame {
	return &Frame{Type: FrameError, Code: CodeForError(err), Error: err.Error()}
}
