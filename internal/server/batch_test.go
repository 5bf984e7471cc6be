package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"sudaf/internal/core"
	"sudaf/internal/errs"
	"sudaf/internal/server"
	"sudaf/internal/server/client"
)

// batchQueries is an overlapping trio: the first two share a data part
// (same fingerprint group → one fused scan), the third groups by a
// different key and scans on its own.
var batchQueries = []string{
	`SELECT s_state, avg(ss_list_price) FROM store_sales, store
		WHERE ss_store_sk = s_store_sk GROUP BY s_state ORDER BY s_state`,
	`SELECT s_state, stddev(ss_list_price), qm(ss_sales_price) FROM store_sales, store
		WHERE ss_store_sk = s_store_sk GROUP BY s_state ORDER BY s_state`,
	`SELECT ss_store_sk, sum(ss_sales_price) FROM store_sales
		GROUP BY ss_store_sk ORDER BY ss_store_sk`,
}

// TestBatchRoundTrip: a batch over the wire returns, per query, exactly
// what a fresh engine returns running the same queries sequentially —
// values bit-identical, end frames carrying per-query stats.
func TestBatchRoundTrip(t *testing.T) {
	eng := newEngine(t, 4000, core.Options{})
	ref := newEngine(t, 4000, core.Options{})
	srv := startServer(t, server.Config{Session: eng})
	c := client.New(srv.Addr(), client.Options{})

	results, err := c.QueryBatch(context.Background(), batchQueries, "share")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batchQueries) {
		t.Fatalf("results = %d, want %d", len(results), len(batchQueries))
	}
	for qi, res := range results {
		direct, err := ref.Query(batchQueries[qi], core.ModeShare)
		if err != nil {
			t.Fatal(err)
		}
		if res.End == nil {
			t.Fatalf("query %d missing end frame", qi)
		}
		if len(res.Rows) != direct.Table.NumRows() {
			t.Fatalf("query %d rows = %d, want %d", qi, len(res.Rows), direct.Table.NumRows())
		}
		for i := 0; i < direct.Table.NumRows(); i++ {
			for col := range direct.Table.Cols {
				dc := direct.Table.Cols[col]
				if res.Columns[col].Kind == "string" {
					if got, want := res.String(i, col), dc.StringAt(i); got != want {
						t.Errorf("query %d row %d col %d = %q, want %q", qi, i, col, got, want)
					}
					continue
				}
				got, want := res.Float(i, col), dc.AsFloat(i)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("query %d row %d col %d = %v, want bit-identical %v", qi, i, col, got, want)
				}
			}
		}
		if res.End.Groups != direct.Groups {
			t.Errorf("query %d groups = %d, want %d", qi, res.End.Groups, direct.Groups)
		}
	}
	// The batch's fused scan means the wire stats show fewer scanned rows
	// than three standalone scans would.
	total := 0
	for _, res := range results {
		total += res.End.Stats.RowsScanned
	}
	if total >= 3*4000 {
		t.Errorf("batch scanned %d rows, want fewer than 3 full scans", total)
	}
}

// TestBatchSmallFrames: tiny frames force interleaved multi-frame
// sub-streams and the query tags still demultiplex them correctly.
func TestBatchSmallFrames(t *testing.T) {
	eng := newEngine(t, 2000, core.Options{})
	srv := startServer(t, server.Config{Session: eng, BatchRows: 1})
	c := client.New(srv.Addr(), client.Options{})
	results, err := c.QueryBatch(context.Background(), batchQueries, "rewrite")
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Rows) != 4 || len(results[1].Rows) != 4 { // 4 distinct states
		t.Fatalf("rows = %d, %d; want 4 each", len(results[0].Rows), len(results[1].Rows))
	}
	if len(results[2].Rows) != 6 { // 6 stores
		t.Fatalf("query 2 rows = %d, want 6", len(results[2].Rows))
	}
}

// TestBatchErrors: malformed bodies are 400s, and one bad query fails
// the whole batch with its typed error (all-or-nothing contract).
func TestBatchErrors(t *testing.T) {
	eng := newEngine(t, 500, core.Options{})
	srv := startServer(t, server.Config{Session: eng})
	ctx := context.Background()
	c := client.New(srv.Addr(), client.Options{Retries: -1})

	if _, err := c.QueryBatch(ctx, nil, "share"); err == nil {
		t.Error("empty batch accepted")
	}
	_, err := c.QueryBatch(ctx, []string{
		batchQueries[0],
		"SELECT s_state, prod(ss_list_price) FROM store_sales, store WHERE ss_store_sk = s_store_sk GROUP BY s_state",
	}, "share")
	if !errors.Is(err, errs.ErrUnknownUDAF) {
		t.Errorf("err = %v, want ErrUnknownUDAF across the wire", err)
	}
	if _, err := c.QueryBatch(ctx, []string{"SELEC nope"}, "share"); !errors.Is(err, errs.ErrParse) {
		t.Errorf("err = %v, want ErrParse", err)
	}
	// Raw protocol check: unknown mode is a pre-execution bad_request.
	resp, err := http.Post("http://"+srv.Addr()+"/v1/batch", "application/json",
		strings.NewReader(`{"queries":["SELECT 1"],"mode":"turbo"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown mode status = %d, want 400", resp.StatusCode)
	}
}

// TestBatchMetrics: the batch families count requests and member
// queries, and show up in a scrape.
func TestBatchMetrics(t *testing.T) {
	eng := newEngine(t, 500, core.Options{})
	srv := startServer(t, server.Config{Session: eng})
	c := client.New(srv.Addr(), client.Options{})
	if _, err := c.QueryBatch(context.Background(), batchQueries, "share"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"sudaf_server_batch_requests_total", "sudaf_server_batch_queries_total",
		fmt.Sprintf("kind=%q", "batch"),
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("metrics scrape missing %s", want)
		}
	}
}

// TestFrameBytesMetric: sudaf_server_frame_bytes_total counts exactly
// the payload bytes the response's length prefixes declare.
func TestFrameBytesMetric(t *testing.T) {
	eng := newEngine(t, 500, core.Options{})
	srv := startServer(t, server.Config{Session: eng, MetricsLabel: "frame-bytes"})
	body, _ := json.Marshal(server.BatchRequest{Queries: batchQueries, BatchRows: 2})
	resp, err := http.Post("http://"+srv.Addr()+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, %v", resp.StatusCode, err)
	}
	declared := 0
	for rest := string(stream); rest != ""; {
		var n int
		if _, err := fmt.Sscanf(rest, "%d ", &n); err != nil {
			t.Fatalf("bad frame at %q: %v", rest, err)
		}
		declared += n
		rest = rest[len(fmt.Sprint(n))+1+n+1:]
	}
	scrapeResp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer scrapeResp.Body.Close()
	scrape, _ := io.ReadAll(scrapeResp.Body)
	want := fmt.Sprintf("sudaf_server_frame_bytes_total{server=%q} %d\n", "frame-bytes", declared)
	if declared == 0 || !strings.Contains(string(scrape), want) {
		t.Errorf("scrape lacks %q", want)
	}
}
