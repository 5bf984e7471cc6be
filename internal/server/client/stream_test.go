package client

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sudaf/internal/errs"
	"sudaf/internal/server"
)

func framed(t *testing.T, frames ...*server.Frame) string {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := server.WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestTornInputs feeds the same broken responses to all three consumers
// of a framed stream — Query, QueryBatch and SubStream.Next — and
// requires the same classification from each: they read through one
// stream reader, so a tear cannot mean one thing to a query and another
// to a subscription.
func TestTornInputs(t *testing.T) {
	schema := framed(t, &server.Frame{Type: server.FrameSchema,
		Columns: []server.ColumnSpec{{Name: "x", Kind: "float"}}})
	batch := framed(t, &server.Frame{Type: server.FrameBatch, Rows: [][]any{{1.5}}})

	cases := []struct {
		name   string
		status int
		body   string
		is     error  // the sentinel every consumer must report, or
		text   string // (untyped failures) what the message must contain
	}{
		{name: "cut mid-frame", status: 200, body: schema + batch[:len(batch)/2], is: server.ErrTornStream},
		{name: "clean EOF before end", status: 200, body: schema + batch, is: server.ErrTornStream},
		{name: "empty stream", status: 200, body: "", is: server.ErrTornStream},
		{name: "length prefix too short", status: 200, body: schema + "5 " + batch[strings.Index(batch, " ")+1:], is: server.ErrTornStream},
		{name: "length prefix too long", status: 200, body: schema + "9" + batch + batch, is: server.ErrTornStream},
		{name: "oversized frame", status: 200, body: schema + "99999999 {", is: server.ErrFrameTooLarge},
		{name: "error frame", status: 200,
			body: schema + framed(t, &server.Frame{Type: server.FrameError, Code: server.CodeOverloaded, Error: "shed"}),
			is:   errs.ErrOverloaded},
		{name: "non-200 with ErrorBody", status: 503, body: `{"code":"closed","error":"draining"}`, is: errs.ErrEngineClosed},
		{name: "non-200 without ErrorBody", status: 500, body: "boom", text: "HTTP 500: boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body)) //nolint:errcheck // the client's verdict is the assertion
			}))
			defer stub.Close()
			c := New(strings.TrimPrefix(stub.URL, "http://"), Options{Retries: -1})
			ctx := context.Background()

			consumers := map[string]func() error{
				"Query": func() error { _, err := c.Query(ctx, "q", ""); return err },
				"QueryBatch": func() error {
					_, err := c.QueryBatch(ctx, []string{"q0", "q1"}, "")
					return err
				},
				"SubStream.Next": func() error {
					sub, err := c.Subscribe(ctx, "q", "", 0)
					if err != nil {
						return err
					}
					defer sub.Close()
					for {
						if _, err := sub.Next(); err != nil {
							return err
						}
					}
				},
			}
			for name, consume := range consumers {
				err := consume()
				switch {
				case err == nil:
					t.Errorf("%s: no error", name)
				case tc.is != nil && !errors.Is(err, tc.is):
					t.Errorf("%s: got %v, want %v", name, err, tc.is)
				case tc.is == nil && !strings.Contains(err.Error(), tc.text):
					t.Errorf("%s: got %v, want an error mentioning %q", name, err, tc.text)
				case tc.is == nil && IsTransport(err):
					t.Errorf("%s: untyped rejection %v classified as a transport failure", name, err)
				}
			}
		})
	}
}
