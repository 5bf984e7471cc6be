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
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

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

	// table backs a batch frame built by BatchFrame, whose Rows stay
	// nil: the encoder reads the cells from its columns, boxing none.
	table *storage.Table
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

// The frame codec. appendFrame is the one encoder of every frame type,
// and its output is byte for byte what encoding/json's Marshal gives for
// the same Frame: struct field order, omitempty, HTML-safe string
// escapes and ES6 float spelling. Any JSON reader can therefore consume
// the stream; TestFrameEncodingMatchesJSON pins the bytes. DecodeFrame
// reads that compact form in one pass and hands anything else to
// encoding/json.

// framePrefixRoom is the room writeFrame leaves ahead of a payload for
// its "<len> " prefix: any int64's digits and the space.
const framePrefixRoom = 20

// maxPooledFrame bounds the buffers frameBufs keeps, so one huge frame
// is not held for the life of the process.
const maxPooledFrame = 256 << 10

var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame length-frames one frame onto w: "<len> <json>\n".
func WriteFrame(w io.Writer, f *Frame) error {
	_, err := writeFrame(w, f)
	return err
}

// writeFrame is WriteFrame reporting the payload's length. Prefix,
// payload and newline are built in one pooled buffer, the payload after
// room for the prefix, whose digits then go right-aligned in front of
// it, and reach w in one Write.
func writeFrame(w io.Writer, f *Frame) (int, error) {
	bp := frameBufs.Get().(*[]byte)
	var room [framePrefixRoom]byte
	buf, err := appendFrame(append((*bp)[:0], room[:]...), f)
	n := len(buf) - framePrefixRoom
	if err == nil {
		digits := strconv.AppendInt(room[:0], int64(n), 10)
		start := framePrefixRoom - 1 - len(digits)
		copy(buf[start:], digits)
		buf[framePrefixRoom-1] = ' '
		buf = append(buf, '\n')
		_, err = w.Write(buf[start:])
	}
	if cap(buf) <= maxPooledFrame {
		*bp = buf
		frameBufs.Put(bp)
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// appendFrame appends f's JSON payload to b.
func appendFrame(b []byte, f *Frame) ([]byte, error) {
	b = appendString(append(b, `{"type":`...), f.Type)
	if f.Query != 0 {
		b = strconv.AppendInt(append(b, `,"query":`...), int64(f.Query), 10)
	}
	if len(f.Columns) > 0 {
		b = append(b, `,"columns":[`...)
		for i, c := range f.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"name":`...), c.Name)
			b = appendString(append(b, `,"kind":`...), c.Kind)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if t := f.table; t != nil {
		if t.NumRows() > 0 {
			b = appendTableRows(append(b, `,"rows":`...), t)
		}
	} else if len(f.Rows) > 0 {
		var err error
		if b, err = appendRows(append(b, `,"rows":`...), f.Rows); err != nil {
			return b, err
		}
	}
	if f.Groups != 0 {
		b = strconv.AppendInt(append(b, `,"groups":`...), int64(f.Groups), 10)
	}
	if f.FullCacheHit {
		b = append(b, `,"fullCacheHit":true`...)
	}
	if f.UsedView != "" {
		b = appendString(append(b, `,"usedView":`...), f.UsedView)
	}
	if len(f.Events) > 0 {
		b = append(b, `,"events":[`...)
		for i, e := range f.Events {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, e)
		}
		b = append(b, ']')
	}
	if st := f.Stats; st != nil {
		b = strconv.AppendInt(append(b, `,"stats":{"wallMicros":`...), st.WallMicros, 10)
		if st.QueueWaitMicros != 0 {
			b = strconv.AppendInt(append(b, `,"queueWaitMicros":`...), st.QueueWaitMicros, 10)
		}
		b = strconv.AppendInt(append(b, `,"rowsScanned":`...), int64(st.RowsScanned), 10)
		if st.CacheExactHits != 0 {
			b = strconv.AppendInt(append(b, `,"cacheExactHits":`...), int64(st.CacheExactHits), 10)
		}
		if st.CacheSharedHits != 0 {
			b = strconv.AppendInt(append(b, `,"cacheSharedHits":`...), int64(st.CacheSharedHits), 10)
		}
		if st.CacheSignHits != 0 {
			b = strconv.AppendInt(append(b, `,"cacheSignHits":`...), int64(st.CacheSignHits), 10)
		}
		if st.CacheMisses != 0 {
			b = strconv.AppendInt(append(b, `,"cacheMisses":`...), int64(st.CacheMisses), 10)
		}
		b = append(b, '}')
	}
	if f.Code != "" {
		b = appendString(append(b, `,"code":`...), f.Code)
	}
	if f.Error != "" {
		b = appendString(append(b, `,"error":`...), f.Error)
	}
	if m := f.Window; m != nil {
		b = strconv.AppendInt(append(b, `,"window":{"seq":`...), m.Seq, 10)
		b = strconv.AppendInt(append(b, `,"epoch":`...), m.Epoch, 10)
		b = strconv.AppendInt(append(b, `,"firstRow":`...), int64(m.FirstRow), 10)
		b = strconv.AppendInt(append(b, `,"lastRow":`...), int64(m.LastRow), 10)
		if m.NumericFaults != 0 {
			b = strconv.AppendInt(append(b, `,"numericFaults":`...), int64(m.NumericFaults), 10)
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendTableRows appends a BatchFrame's rows, read from the columns as
// BatchFrame once boxed them: strings, int64s, and floats with the
// non-finite ones spelled as strings.
func appendTableRows(b []byte, t *storage.Table) []byte {
	b = append(b, '[')
	for i, n := 0, t.NumRows(); i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, c := range t.Cols {
			if j > 0 {
				b = append(b, ',')
			}
			switch c.Kind {
			case storage.KindString:
				b = appendString(b, c.StringAt(i))
			case storage.KindInt:
				b = strconv.AppendInt(b, c.AsInt(i), 10)
			default:
				if v := c.AsFloat(i); math.IsNaN(v) || math.IsInf(v, 0) {
					b = appendString(b, nonFiniteString(v))
				} else {
					b = appendFloat(b, v)
				}
			}
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendRows appends hand-built or decoded rows.
func appendRows(b []byte, rows [][]any) ([]byte, error) {
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		if row == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, cell := range row {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendCell(b, cell); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendCell appends one cell of the shapes DecodeFrame produces
// (float64, string) or a caller may build (int64, int). A non-finite
// float64 is an error, as it is to encoding/json: BatchFrame spells
// those as strings.
func appendCell(b []byte, cell any) ([]byte, error) {
	switch v := cell.(type) {
	case float64:
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, fmt.Errorf("unsupported batch cell value %v", v)
		}
		return appendFloat(b, v), nil
	case string:
		return appendString(b, v), nil
	case int64:
		return strconv.AppendInt(b, v, 10), nil
	case int:
		return strconv.AppendInt(b, int64(v), 10), nil
	}
	return b, fmt.Errorf("unsupported batch cell type %T", cell)
}

// appendFloat appends a finite v as encoding/json spells a float64: the
// shortest digits that read back as v, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent unpadded (1e-7).
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json quotes it: '"' and '\\' and
// the control bytes with a backslash (\n, \t, ... or \u00XX), '<', '>'
// and '&' as \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028 and
// U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// DecodeFrame parses one frame payload (without the length prefix). The
// compact form appendFrame writes is read in one pass without
// reflection; any other valid JSON (whitespace, escapes, another key
// order, unknown fields) goes to encoding/json, which stays the
// reference for input this server never writes.
func DecodeFrame(data []byte) (*Frame, error) {
	f, ok := decodeCompact(data)
	if !ok {
		f = new(Frame)
		if err := json.Unmarshal(data, f); err != nil {
			return nil, err
		}
	}
	switch f.Type {
	case FrameSchema, FrameBatch, FrameEnd, FrameError:
		return f, nil
	}
	return nil, fmt.Errorf("unknown frame type %q", f.Type)
}

// decodeCompact reads a payload in appendFrame's form: Frame's keys in
// field order, no whitespace, strings without escapes. It reports false
// for anything else, valid JSON or not; it never accepts what
// encoding/json would read differently or reject.
func decodeCompact(data []byte) (*Frame, bool) {
	p := &frameParser{data: data}
	f := new(Frame)
	p.open()
	if p.key("type") {
		f.Type = p.str()
	}
	if p.key("query") {
		f.Query = int(p.integer(strconv.IntSize))
	}
	if p.key("columns") {
		f.Columns = []ColumnSpec{}
		p.list(func() {
			var c ColumnSpec
			p.open()
			if p.key("name") {
				c.Name = p.str()
			}
			if p.key("kind") {
				c.Kind = p.str()
			}
			p.close()
			f.Columns = append(f.Columns, c)
		})
	}
	if p.key("rows") {
		f.Rows = p.rows()
	}
	if p.key("groups") {
		f.Groups = int(p.integer(strconv.IntSize))
	}
	if p.key("fullCacheHit") {
		f.FullCacheHit = p.bool()
	}
	if p.key("usedView") {
		f.UsedView = p.str()
	}
	if p.key("events") {
		f.Events = []string{}
		p.list(func() { f.Events = append(f.Events, p.str()) })
	}
	if p.key("stats") {
		st := new(QueryStatsWire)
		p.open()
		if p.key("wallMicros") {
			st.WallMicros = p.integer(64)
		}
		if p.key("queueWaitMicros") {
			st.QueueWaitMicros = p.integer(64)
		}
		if p.key("rowsScanned") {
			st.RowsScanned = int(p.integer(strconv.IntSize))
		}
		if p.key("cacheExactHits") {
			st.CacheExactHits = int(p.integer(strconv.IntSize))
		}
		if p.key("cacheSharedHits") {
			st.CacheSharedHits = int(p.integer(strconv.IntSize))
		}
		if p.key("cacheSignHits") {
			st.CacheSignHits = int(p.integer(strconv.IntSize))
		}
		if p.key("cacheMisses") {
			st.CacheMisses = int(p.integer(strconv.IntSize))
		}
		p.close()
		f.Stats = st
	}
	if p.key("code") {
		f.Code = p.str()
	}
	if p.key("error") {
		f.Error = p.str()
	}
	if p.key("window") {
		m := new(WindowMeta)
		p.open()
		if p.key("seq") {
			m.Seq = p.integer(64)
		}
		if p.key("epoch") {
			m.Epoch = p.integer(64)
		}
		if p.key("firstRow") {
			m.FirstRow = int(p.integer(strconv.IntSize))
		}
		if p.key("lastRow") {
			m.LastRow = int(p.integer(strconv.IntSize))
		}
		if p.key("numericFaults") {
			m.NumericFaults = int(p.integer(strconv.IntSize))
		}
		p.close()
		f.Window = m
	}
	p.close()
	return f, !p.bad && p.pos == len(data)
}

// frameParser is decodeCompact's cursor. A step that meets anything
// outside the compact form sets bad, and every later step is a no-op.
type frameParser struct {
	data  []byte
	pos   int
	first bool // the innermost open object has no key yet
	bad   bool
}

// eat consumes c when it is next.
func (p *frameParser) eat(c byte) bool {
	if p.bad || p.pos >= len(p.data) || p.data[p.pos] != c {
		return false
	}
	p.pos++
	return true
}

// expect consumes c, which must be next.
func (p *frameParser) expect(c byte) {
	if !p.eat(c) {
		p.bad = true
	}
}

func (p *frameParser) open()  { p.expect('{'); p.first = true }
func (p *frameParser) close() { p.expect('}'); p.first = false }

// key consumes `"name":` when it is the open object's next key (after a
// ',' unless it is the object's first).
func (p *frameParser) key(name string) bool {
	if p.bad {
		return false
	}
	i := p.pos
	if !p.first {
		if i >= len(p.data) || p.data[i] != ',' {
			return false
		}
		i++
	}
	end := i + len(name) + 3
	if end > len(p.data) || p.data[i] != '"' || string(p.data[i+1:end-2]) != name ||
		p.data[end-2] != '"' || p.data[end-1] != ':' {
		return false
	}
	p.pos, p.first = end, false
	return true
}

// list consumes an array, calling elem at each element.
func (p *frameParser) list(elem func()) {
	p.expect('[')
	if p.eat(']') {
		return
	}
	for !p.bad {
		elem()
		if p.eat(']') {
			return
		}
		p.expect(',')
	}
}

// str consumes a string whose JSON text is its value: no escapes, no
// control bytes, valid UTF-8.
func (p *frameParser) str() string {
	p.expect('"')
	ascii := true
	for i := p.pos; !p.bad && i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			raw := p.data[p.pos:i]
			p.pos = i + 1
			if !ascii && !utf8.Valid(raw) {
				p.bad = true
			}
			return wireString(raw)
		case c == '\\' || c < ' ':
			p.bad = true
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	p.bad = true
	return ""
}

// wireString copies raw out, sharing the constant for the spellings
// every stream repeats instead of allocating each time.
func wireString(raw []byte) string {
	switch string(raw) {
	case FrameSchema:
		return FrameSchema
	case FrameBatch:
		return FrameBatch
	case FrameEnd:
		return FrameEnd
	case "float":
		return "float"
	case "int":
		return "int"
	case "string":
		return "string"
	case "NaN":
		return "NaN"
	case "+Inf":
		return "+Inf"
	case "-Inf":
		return "-Inf"
	}
	return string(raw)
}

// number consumes a JSON number, an integer alone when integral, and
// returns its text.
func (p *frameParser) number(integral bool) []byte {
	start := p.pos
	p.eat('-')
	if !p.eat('0') {
		p.digits()
	}
	if !integral {
		if p.eat('.') {
			p.digits()
		}
		if p.eat('e') || p.eat('E') {
			if !p.eat('+') {
				p.eat('-')
			}
			p.digits()
		}
	}
	if p.bad {
		return nil
	}
	return p.data[start:p.pos]
}

// digits consumes one or more decimal digits.
func (p *frameParser) digits() {
	i := p.pos
	for i < len(p.data) && p.data[i]-'0' <= 9 {
		i++
	}
	if i == p.pos {
		p.bad = true
	}
	p.pos = i
}

// integer consumes an integer that fits in bits, as encoding/json reads
// one into an int field.
func (p *frameParser) integer(bits int) int64 {
	text := p.number(true)
	if p.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(text), 10, bits)
	if err != nil {
		p.bad = true
	}
	return v
}

func (p *frameParser) bool() bool {
	rest := p.data[p.pos:]
	switch {
	case p.bad:
	case bytes.HasPrefix(rest, []byte("true")):
		p.pos += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		p.pos += 5
		return false
	}
	p.bad = true
	return false
}

// rowScratch holds decodeCompact's cells while a frame's rows are read,
// so the rows it returns can share one exactly sized cell slice.
var rowScratch = sync.Pool{New: func() any { return new(rowBuf) }}

type rowBuf struct {
	cells []any
	ends  []int // each row's end in cells
}

// maxPooledCells bounds the scratch rowScratch keeps.
const maxPooledCells = 64 << 10

// rows consumes a batch frame's rows. Numbers become float64 through
// strconv.ParseFloat, the call encoding/json makes; the cells land in
// one slice of exactly their count, and each row is a sub-slice of it.
func (p *frameParser) rows() [][]any {
	sc := rowScratch.Get().(*rowBuf)
	p.list(func() {
		p.list(func() { sc.cells = append(sc.cells, p.cell()) })
		sc.ends = append(sc.ends, len(sc.cells))
	})
	var rows [][]any
	if !p.bad {
		cells := make([]any, len(sc.cells))
		copy(cells, sc.cells)
		rows = make([][]any, len(sc.ends))
		start := 0
		for i, end := range sc.ends {
			rows[i] = cells[start:end:end]
			start = end
		}
	}
	clear(sc.cells)
	sc.cells, sc.ends = sc.cells[:0], sc.ends[:0]
	if cap(sc.cells) <= maxPooledCells {
		rowScratch.Put(sc)
	}
	return rows
}

// cell consumes one batch cell: a string or a number.
func (p *frameParser) cell() any {
	if p.pos < len(p.data) && p.data[p.pos] == '"' {
		return p.str()
	}
	text := p.number(false)
	if p.bad {
		return nil
	}
	v, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		p.bad = true
	}
	return v
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
	// +1 for the trailing newline. A frame that fits br's buffer is
	// decoded where it lies (DecodeFrame copies out what it keeps); a
	// larger one is read into a buffer of its own.
	inPlace := n < br.Size()
	var buf []byte
	var err error
	if inPlace {
		buf, err = br.Peek(n + 1)
	} else {
		buf = make([]byte, n+1)
		_, err = io.ReadFull(br, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: frame body: %v", ErrTornStream, err)
	}
	if buf[n] != '\n' {
		return nil, fmt.Errorf("%w: frame not newline-terminated", ErrTornStream)
	}
	f, err := DecodeFrame(buf[:n])
	if inPlace {
		br.Discard(n + 1) //nolint:errcheck // the bytes were peeked, so they are there
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTornStream, err)
	}
	return f, nil
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
// for them. The frame keeps b and is encoded from its columns, so it
// must be written before b's storage is reused.
func BatchFrame(b *storage.Table) *Frame {
	return &Frame{Type: FrameBatch, table: b}
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
