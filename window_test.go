package sudaf_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sudaf"
	"sudaf/internal/faultinject"
)

// windowEngine builds an engine over adversarial stream data: NaN, ±Inf,
// signed zeros, fractional, huge and tiny values, plus an int and a
// string column for emit-row passthrough checks.
func windowEngine(t *testing.T, n int) *sudaf.Engine {
	t.Helper()
	eng := sudaf.Open(sudaf.Options{Workers: 4})
	if err := eng.Register(windowTable("ticks", 0, n, 7)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// windowTable builds rows [lo, n) of the deterministic adversarial
// stream (same seed → same rows, so deltas slice the same sequence).
func windowTable(name string, lo, n int, seed int64) *sudaf.Table {
	tbl := sudaf.NewTable(name,
		sudaf.NewColumn("v", sudaf.Float),
		sudaf.NewColumn("k", sudaf.Int),
		sudaf.NewColumn("tag", sudaf.String))
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"buy", "sell", "hold"}
	for i := 0; i < n; i++ {
		var v float64
		switch rng.Intn(8) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1)
		case 2:
			v = math.Inf(-1)
		case 3:
			v = math.Copysign(0, -1)
		case 4:
			v = rng.NormFloat64() * 1e17
		case 5:
			v = rng.NormFloat64() * 1e-17
		default:
			v = rng.NormFloat64() * 50
		}
		if i < lo {
			continue // keep the rng sequence aligned across slices
		}
		tbl.Col("v").AppendFloat(v)
		tbl.Col("k").AppendInt(int64(i))
		tbl.Col("tag").AppendString(tags[i%3])
	}
	return tbl
}

var windowModes = []struct {
	name string
	mode sudaf.Mode
}{
	{"baseline", sudaf.Baseline},
	{"rewrite", sudaf.Rewrite},
	{"share", sudaf.Share},
}

const windowAggs = "sum(v), avg(v), min(v), max(v), qm(v)"

// bitsEqual is the repo's bit-identity predicate (NaN ≡ NaN): windowed
// emissions must match a cold recompute down to zero signs and exact
// finite bits. NaN payloads are exempt — which payload survives a
// NaN ⊕ NaN merge depends on hardware operand order, which the
// compiler may legally swap for commutative ops, so no two code paths
// can pin it.
func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestWindowedVsColdRecompute is the windowed-vs-recompute differential
// battery: every emitted window of a one-shot windowed query must be
// bit-identical to a cold full query over exactly the window's row
// range, registered as its own table — across sliding and tumbling
// frames, all three modes, on NaN/±Inf adversarial data.
func TestWindowedVsColdRecompute(t *testing.T) {
	const n = 57
	eng := windowEngine(t, n)

	specs := []struct {
		over   string
		frames [][2]int
	}{
		{"ROWS 6 PRECEDING", slidingFrames(n, 6)},
		{"ROWS 10 TUMBLING", tumblingFrames(n, 10)},
	}
	// Register each distinct frame's rows once as its own cold table.
	coldName := map[[2]int]string{}
	for _, spec := range specs {
		for _, fr := range spec.frames {
			if _, ok := coldName[fr]; ok {
				continue
			}
			name := fmt.Sprintf("cold_%d_%d", fr[0], fr[1])
			if err := eng.Register(windowTable(name, fr[0], fr[1], 7)); err != nil {
				t.Fatal(err)
			}
			coldName[fr] = name
		}
	}

	for _, spec := range specs {
		for _, m := range windowModes {
			t.Run(spec.over+"/"+m.name, func(t *testing.T) {
				// OVER attaches to one call; its frame governs the
				// whole statement.
				sql := fmt.Sprintf("SELECT sum(v) OVER (%s), avg(v), min(v), max(v), qm(v) FROM ticks", spec.over)
				res, err := eng.Query(sql, m.mode)
				if err != nil {
					t.Fatal(err)
				}
				if res.Table.NumRows() != len(spec.frames) {
					t.Fatalf("emitted %d windows, want %d", res.Table.NumRows(), len(spec.frames))
				}
				for e, fr := range spec.frames {
					cold, err := eng.Query(
						"SELECT "+windowAggs+" FROM "+coldName[fr], m.mode)
					if err != nil {
						t.Fatal(err)
					}
					for c := range res.Table.Cols {
						got := res.Table.Cols[c].F[e]
						want := cold.Table.Cols[c].F[0]
						if !bitsEqual(got, want) {
							t.Fatalf("window %d rows [%d,%d) col %s: %x (%v) != cold %x (%v)",
								e, fr[0], fr[1], res.Table.Cols[c].Name,
								math.Float64bits(got), got, math.Float64bits(want), want)
						}
					}
				}
			})
		}
	}
}

func slidingFrames(n, prec int) [][2]int {
	var out [][2]int
	for r := 0; r < n; r++ {
		lo := r - prec
		if lo < 0 {
			lo = 0
		}
		out = append(out, [2]int{lo, r + 1})
	}
	return out
}

func tumblingFrames(n, b int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += b {
		hi := lo + b
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// TestWindowMultiMorselFrames pins the chunked refold against frames
// larger than one morsel (65536 rows): the fold's chunk boundaries must
// reproduce the cold scan's morsel merge order bit-for-bit.
func TestWindowMultiMorselFrames(t *testing.T) {
	const n = 140_000
	eng := windowEngine(t, n)
	frames := tumblingFrames(n, 100_000)
	for _, fr := range frames {
		name := fmt.Sprintf("cold_%d_%d", fr[0], fr[1])
		if err := eng.Register(windowTable(name, fr[0], fr[1], 7)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range windowModes {
		res, err := eng.Query("SELECT sum(v) OVER (ROWS 100000 TUMBLING), avg(v), qm(v) FROM ticks", m.mode)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.NumRows() != len(frames) {
			t.Fatalf("%s: emitted %d windows, want %d", m.name, res.Table.NumRows(), len(frames))
		}
		for e, fr := range frames {
			cold, err := eng.Query(fmt.Sprintf("SELECT sum(v), avg(v), qm(v) FROM cold_%d_%d", fr[0], fr[1]), m.mode)
			if err != nil {
				t.Fatal(err)
			}
			for c := range res.Table.Cols {
				if !bitsEqual(res.Table.Cols[c].F[e], cold.Table.Cols[c].F[0]) {
					t.Fatalf("%s window %d col %d: %v != cold %v",
						m.name, e, c, res.Table.Cols[c].F[e], cold.Table.Cols[c].F[0])
				}
			}
		}
	}
}

// TestWindowOutputShapes checks non-aggregate projections: bare columns
// read at each frame's emit row with their type preserved, and mixed
// expressions over aggregates and columns.
func TestWindowOutputShapes(t *testing.T) {
	eng := windowEngine(t, 20)
	res, err := eng.Query(
		"SELECT tag, k, sum(v) OVER (ROWS 3 PRECEDING) AS s, k + 1000", sudaf.Rewrite)
	if err == nil {
		t.Fatal("missing FROM should fail")
	}
	res, err = eng.Query(
		"SELECT tag, k, sum(v) OVER (ROWS 3 PRECEDING) AS s, k + 1000 FROM ticks", sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.NumRows(); got != 20 {
		t.Fatalf("rows = %d, want 20", got)
	}
	tags := []string{"buy", "sell", "hold"}
	for r := 0; r < 20; r++ {
		if got := res.Table.Col("tag").StringAt(r); got != tags[r%3] {
			t.Fatalf("row %d tag = %q, want %q", r, got, tags[r%3])
		}
		if got := res.Table.Col("k").AsInt(r); got != int64(r) {
			t.Fatalf("row %d k = %d, want %d", r, got, r)
		}
		if got := res.Table.Cols[3].AsFloat(r); got != float64(r+1000) {
			t.Fatalf("row %d k+1000 = %v", r, got)
		}
	}
	if res.Table.Col("tag").Kind != sudaf.String || res.Table.Col("k").Kind != sudaf.Int {
		t.Fatal("passthrough columns must keep their storage kind")
	}
}

// TestWindowShareCaching pins Theorem 4.1 sharing over window partials:
// a repeated share-mode windowed query is a full cache hit (no rows
// scanned, bit-identical output), and a *different* UDAF over the same
// frame reuses the cached per-emission state vectors.
func TestWindowShareCaching(t *testing.T) {
	eng := windowEngine(t, 40)
	const sql = "SELECT qm(v) OVER (ROWS 4 PRECEDING) FROM ticks"
	first, err := eng.Query(sql, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if first.RowsScanned == 0 || first.FullCacheHit {
		t.Fatalf("cold run must scan: scanned=%d fullHit=%v", first.RowsScanned, first.FullCacheHit)
	}
	second, err := eng.Query(sql, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FullCacheHit || second.RowsScanned != 0 {
		t.Fatalf("warm run: fullHit=%v scanned=%d, want true/0", second.FullCacheHit, second.RowsScanned)
	}
	for r := range first.Table.Cols[0].F {
		if !bitsEqual(first.Table.Cols[0].F[r], second.Table.Cols[0].F[r]) {
			t.Fatalf("warm row %d differs from cold", r)
		}
	}

	// msq needs exactly qm's states (sum(v^2), count) with a different
	// terminating function: served entirely from the window cache.
	if err := eng.DefineUDAF("msq", []string{"x"}, "sum(x^2)/count()"); err != nil {
		t.Fatal(err)
	}
	third, err := eng.Query("SELECT msq(v) OVER (ROWS 4 PRECEDING) FROM ticks", sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if !third.FullCacheHit || third.RowsScanned != 0 {
		t.Fatalf("cross-UDAF window reuse: fullHit=%v scanned=%d", third.FullCacheHit, third.RowsScanned)
	}
	if third.Stats.CacheExactHits == 0 {
		t.Fatalf("expected exact state hits, stats=%+v", third.Stats)
	}
	// A different frame must NOT hit the other frame's entry.
	other, err := eng.Query("SELECT qm(v) OVER (ROWS 5 PRECEDING) FROM ticks", sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if other.FullCacheHit {
		t.Fatal("different frame shape must not reuse window partials")
	}

	// An append invalidates window entries (frames shift): the next run
	// must recompute, not serve stale vectors.
	if _, err := eng.Append(context.Background(), "ticks", windowTable("ticks", 0, 3, 99)); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Query(sql, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if after.FullCacheHit || after.Table.NumRows() != 43 {
		t.Fatalf("post-append: fullHit=%v rows=%d, want false/43", after.FullCacheHit, after.Table.NumRows())
	}
}

// TestWindowScopeErrors pins the v1 windowed-query surface's error
// messages.
func TestWindowScopeErrors(t *testing.T) {
	eng := windowEngine(t, 10)
	cases := []struct {
		sql, want string
	}{
		{"SELECT sum(v) OVER (EPOCHS 2 PRECEDING) FROM ticks", "EPOCHS windows require"},
		{"SELECT sum(v) OVER (ROWS 2 PRECEDING) FROM ticks WHERE v > 0", "do not support WHERE"},
		{"SELECT sum(v) OVER (ROWS 2 PRECEDING) FROM ticks GROUP BY tag", "GROUP BY"},
		{"SELECT sum(v) OVER (ROWS 2 PRECEDING) FROM ticks ORDER BY v", "ORDER BY"},
		{"SELECT sqrt(v) OVER (ROWS 2 PRECEDING) FROM ticks", "at least one aggregate"},
		{"SELECT sum(v) FROM (SELECT v OVER (ROWS 2 PRECEDING) FROM ticks) s", ""},
		{"SELECT sum(v) OVER (ROWS 2 PRECEDING), avg(v) OVER (ROWS 3 PRECEDING) FROM ticks", "conflicting OVER"},
	}
	for _, c := range cases {
		_, err := eng.Query(c.sql, sudaf.Rewrite)
		if err == nil {
			t.Fatalf("%s: expected error", c.sql)
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not contain %q", c.sql, err, c.want)
		}
	}
}

// collectEmissions drains n results with a timeout.
func collectEmissions(t *testing.T, sub *sudaf.Subscription, n int) []*sudaf.WindowResult {
	t.Helper()
	var out []*sudaf.WindowResult
	timeout := time.After(20 * time.Second)
	for len(out) < n {
		select {
		case wr, ok := <-sub.Results():
			if !ok {
				t.Fatalf("stream closed early after %d/%d results: %v", len(out), n, sub.Err())
			}
			out = append(out, wr)
		case <-timeout:
			t.Fatalf("timed out after %d/%d results", len(out), n)
		}
	}
	return out
}

// TestSubscribeSlidingDifferential: a sliding subscription fed by
// appends must emit, across all batches, exactly the rows a one-shot
// windowed query over the final table produces — bit-identical, in
// order, with contiguous Seq.
func TestSubscribeSlidingDifferential(t *testing.T) {
	for _, m := range windowModes {
		t.Run(m.name, func(t *testing.T) {
			eng := sudaf.Open(sudaf.Options{Workers: 4})
			if err := eng.Register(windowTable("s", 0, 5, 7)); err != nil {
				t.Fatal(err)
			}
			sub, err := eng.Subscribe(context.Background(),
				"SELECT sum(v) OVER (ROWS 3 PRECEDING), qm(v), k FROM s", m.mode)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			// Deltas continue the same deterministic stream.
			total := 5
			batches := []int{1, 4, 2, 7, 3}
			for _, k := range batches {
				if _, err := eng.Append(context.Background(), "s",
					windowTable("s", total, total+k, 7)); err != nil {
					t.Fatal(err)
				}
				total += k
			}

			// 1 snapshot result + one per append.
			results := collectEmissions(t, sub, 1+len(batches))
			oneShot, err := eng.Query("SELECT sum(v) OVER (ROWS 3 PRECEDING), qm(v), k FROM s", m.mode)
			if err != nil {
				t.Fatal(err)
			}
			row := 0
			for i, wr := range results {
				if wr.Seq != int64(i+1) {
					t.Fatalf("result %d has Seq %d (gap)", i, wr.Seq)
				}
				if wr.FirstRow != row {
					t.Fatalf("result %d FirstRow=%d, want %d (FIFO/exactly-once broken)", i, wr.FirstRow, row)
				}
				for r := 0; r < wr.Table.NumRows(); r++ {
					for c := 0; c < 2; c++ {
						if !bitsEqual(wr.Table.Cols[c].F[r], oneShot.Table.Cols[c].F[row]) {
							t.Fatalf("emission row %d col %d: %v != one-shot %v",
								row, c, wr.Table.Cols[c].F[r], oneShot.Table.Cols[c].F[row])
						}
					}
					if wr.Table.Col("k").AsInt(r) != int64(row) {
						t.Fatalf("emission row %d: k=%d", row, wr.Table.Col("k").AsInt(r))
					}
					row++
				}
			}
			if row != total {
				t.Fatalf("emitted %d rows total, want %d (exactly-once broken)", row, total)
			}
		})
	}
}

// TestSubscribeTumbling: tumbling subscriptions emit one result per
// completed bucket — including buckets whose boundary lands exactly on
// an append boundary — and never the growing partial bucket.
func TestSubscribeTumbling(t *testing.T) {
	eng := sudaf.Open(sudaf.Options{Workers: 4})
	if err := eng.Register(windowTable("s", 0, 4, 7)); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(),
		"SELECT sum(v) OVER (ROWS 4 TUMBLING), avg(v) FROM s", sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// 4 seed rows (bucket 1 completes exactly at the snapshot), then
	// appends of 4 (boundary-exact), 2+2 (bucket split across appends),
	// 5 (bucket + 1 leftover row that must stay unemitted).
	total := 4
	for _, k := range []int{4, 2, 2, 5} {
		if _, err := eng.Append(context.Background(), "s", windowTable("s", total, total+k, 7)); err != nil {
			t.Fatal(err)
		}
		total += k
	}
	results := collectEmissions(t, sub, 4) // 17 rows → 4 complete buckets
	oneShot, err := eng.Query("SELECT sum(v) OVER (ROWS 4 TUMBLING), avg(v) FROM s", sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	for i, wr := range results {
		if wr.Seq != int64(i+1) || wr.Table.NumRows() != 1 {
			t.Fatalf("bucket %d: Seq=%d rows=%d", i, wr.Seq, wr.Table.NumRows())
		}
		if wr.FirstRow != i*4 || wr.LastRow != i*4+3 {
			t.Fatalf("bucket %d covers [%d,%d], want [%d,%d]", i, wr.FirstRow, wr.LastRow, i*4, i*4+3)
		}
		for c := 0; c < 2; c++ {
			if !bitsEqual(wr.Table.Cols[c].F[0], oneShot.Table.Cols[c].F[i]) {
				t.Fatalf("bucket %d col %d: %v != one-shot %v", i, c, wr.Table.Cols[c].F[0], oneShot.Table.Cols[c].F[i])
			}
		}
	}
	select {
	case wr := <-sub.Results():
		t.Fatalf("partial bucket must not emit, got Seq %d", wr.Seq)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestSubscribeEpochs: EPOCHS frames tick per append batch, whatever
// its row count; sliding frames cover the last n+1 batches' rows.
func TestSubscribeEpochs(t *testing.T) {
	eng := sudaf.Open(sudaf.Options{Workers: 4})
	if err := eng.Register(windowTable("s", 0, 3, 7)); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(),
		"SELECT sum(v) OVER (EPOCHS 1 PRECEDING), qm(v) FROM s", sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	bounds := [][2]int{{0, 3}} // snapshot = tick 1
	total := 3
	for _, k := range []int{2, 5, 1} {
		if _, err := eng.Append(context.Background(), "s", windowTable("s", total, total+k, 7)); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, [2]int{total, total + k})
		total += k
	}
	results := collectEmissions(t, sub, len(bounds))
	for i, wr := range results {
		lo := bounds[i][0]
		if i > 0 {
			lo = bounds[i-1][0] // last 2 ticks
		}
		hi := bounds[i][1]
		if wr.FirstRow != lo || wr.LastRow != hi-1 || wr.Table.NumRows() != 1 {
			t.Fatalf("tick %d: [%d,%d] rows=%d, want [%d,%d]", i, wr.FirstRow, wr.LastRow, wr.Table.NumRows(), lo, hi-1)
		}
		// Differential: cold query over exactly the window's rows.
		name := fmt.Sprintf("epoch_cold_%d", i)
		if err := eng.Register(windowTable(name, lo, hi, 7)); err != nil {
			t.Fatal(err)
		}
		cold, err := eng.Query("SELECT sum(v), qm(v) FROM "+name, sudaf.Rewrite)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			if !bitsEqual(wr.Table.Cols[c].F[0], cold.Table.Cols[c].F[0]) {
				t.Fatalf("tick %d col %d: %v != cold %v", i, c, wr.Table.Cols[c].F[0], cold.Table.Cols[c].F[0])
			}
		}
	}
}

// TestSubscribeBoundaryAppendRace is the window-boundary race pin:
// appends landing exactly on bucket boundaries while the stream drains
// slowly must produce no torn windows, no duplicates, no gaps — Seq
// contiguous, buckets covering [0,total) exactly once, every value
// bit-identical to the one-shot query.
func TestSubscribeBoundaryAppendRace(t *testing.T) {
	eng := sudaf.Open(sudaf.Options{Workers: 4})
	if err := eng.Register(windowTable("s", 0, 2, 7)); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(),
		"SELECT sum(v) OVER (ROWS 2 TUMBLING) FROM s", sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const appends = 60
	totalCh := make(chan int)
	go func() {
		total := 2
		for i := 0; i < appends; i++ {
			k := 1 + i%3 // 1, 2 (boundary-exact), 3 — drifting across boundaries
			if _, err := eng.Append(context.Background(), "s", windowTable("s", total, total+k, 7)); err != nil {
				t.Error(err)
				break
			}
			total += k
		}
		totalCh <- total
	}()

	var results []*sudaf.WindowResult
	var total int
	timeout := time.After(30 * time.Second)
	done := false
	for !done {
		select {
		case wr, ok := <-sub.Results():
			if !ok {
				t.Fatalf("stream closed early: %v", sub.Err())
			}
			results = append(results, wr)
			time.Sleep(time.Millisecond) // slow consumer: force queueing
			if total > 0 && len(results) == total/2 {
				done = true
			}
		case total = <-totalCh:
			totalCh = nil
			if len(results) >= total/2 {
				done = true
			}
		case <-timeout:
			t.Fatalf("timed out with %d results", len(results))
		}
	}
	if totalCh != nil {
		total = <-totalCh
	}
	oneShot, err := eng.Query("SELECT sum(v) OVER (ROWS 2 TUMBLING) FROM s", sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != total/2 {
		t.Fatalf("got %d buckets, want %d", len(results), total/2)
	}
	for i, wr := range results {
		if wr.Seq != int64(i+1) {
			t.Fatalf("bucket %d: Seq=%d (gap or duplicate)", i, wr.Seq)
		}
		if wr.FirstRow != i*2 || wr.LastRow != i*2+1 {
			t.Fatalf("bucket %d covers [%d,%d] (torn window)", i, wr.FirstRow, wr.LastRow)
		}
		if !bitsEqual(wr.Table.Cols[0].F[0], oneShot.Table.Cols[0].F[i]) {
			t.Fatalf("bucket %d: %v != one-shot %v", i, wr.Table.Cols[0].F[0], oneShot.Table.Cols[0].F[i])
		}
	}
}

// TestSubscribeLifecycle covers the close paths: plain Close ends the
// stream with nil Err; engine Close ends every subscription; Subscribe
// after Close fails fast; EPOCHS one-shot stays rejected while the same
// statement subscribes fine.
func TestSubscribeLifecycle(t *testing.T) {
	eng := sudaf.Open(sudaf.Options{Workers: 2})
	if err := eng.Register(windowTable("s", 0, 6, 7)); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT sum(v) OVER (EPOCHS 2 TUMBLING) FROM s"
	if _, err := eng.Query(sql, sudaf.Rewrite); err == nil {
		t.Fatal("EPOCHS one-shot query must be rejected")
	}
	sub, err := eng.Subscribe(context.Background(), sql, sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close() // idempotent
	if _, ok := <-sub.Results(); ok {
		t.Fatal("Results must be closed after Close")
	}
	if sub.Err() != nil {
		t.Fatalf("plain Close must leave Err nil, got %v", sub.Err())
	}

	sub2, err := eng.Subscribe(context.Background(),
		"SELECT sum(v) OVER (ROWS 2 PRECEDING) FROM s", sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	got := collectEmissions(t, sub2, 1)
	if got[0].Table.NumRows() != 6 {
		t.Fatalf("snapshot emitted %d rows, want 6", got[0].Table.NumRows())
	}
	if err := eng.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub2.Results(); ok {
		t.Fatal("engine Close must close subscription streams")
	}
	if _, err := eng.Subscribe(context.Background(),
		"SELECT sum(v) OVER (ROWS 2 PRECEDING) FROM s", sudaf.Rewrite); err == nil {
		t.Fatal("Subscribe after Close must fail")
	}
}

// TestWindowChaos arms the window fault points: a one-shot windowed
// query fails cleanly, a subscription in every driver surfaces the fault
// via Err after closing its stream, and the engine stays healthy
// afterwards.
func TestWindowChaos(t *testing.T) {
	defer faultinject.Reset()
	eng := windowEngine(t, 30)
	const sql = "SELECT sum(v) OVER (ROWS 3 PRECEDING) FROM ticks"

	faultinject.Arm(faultinject.PointWindowEvict, faultinject.Spec{Kind: faultinject.KindError})
	if _, err := eng.Query(sql, sudaf.Rewrite); err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed window.evict: err=%v", err)
	}
	faultinject.Reset()

	faultinject.Arm(faultinject.PointWindowEmit, faultinject.Spec{Kind: faultinject.KindError})
	if _, err := eng.Query(sql, sudaf.Baseline); err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed window.emit (baseline): err=%v", err)
	}
	faulted(t, eng, sql, sudaf.Rewrite, 0)
	faultinject.Reset()

	// Every driver: EPOCHS sliding and tumbling folds with each point
	// armed (an EPOCHS 1 PRECEDING frame first evicts on the third tick),
	// Baseline recomputes with the emit point armed.
	inputs := []struct {
		point, over string
		mode        sudaf.Mode
	}{
		{faultinject.PointWindowEvict, "EPOCHS 1 PRECEDING", sudaf.Rewrite},
		{faultinject.PointWindowEvict, "EPOCHS 1 PRECEDING", sudaf.Share},
		{faultinject.PointWindowEmit, "EPOCHS 1 PRECEDING", sudaf.Rewrite},
		{faultinject.PointWindowEmit, "EPOCHS 1 PRECEDING", sudaf.Share},
		{faultinject.PointWindowEmit, "EPOCHS 2 TUMBLING", sudaf.Rewrite},
		{faultinject.PointWindowEmit, "EPOCHS 2 TUMBLING", sudaf.Share},
		{faultinject.PointWindowEmit, "ROWS 3 PRECEDING", sudaf.Baseline},
		{faultinject.PointWindowEmit, "ROWS 3 TUMBLING", sudaf.Baseline},
		{faultinject.PointWindowEmit, "EPOCHS 1 PRECEDING", sudaf.Baseline},
		{faultinject.PointWindowEmit, "EPOCHS 2 TUMBLING", sudaf.Baseline},
	}
	for _, in := range inputs {
		faultinject.Arm(in.point, faultinject.Spec{Kind: faultinject.KindError})
		faulted(t, eng, "SELECT sum(v) OVER ("+in.over+"), qm(v) FROM ticks", in.mode, 2)
		faultinject.Reset()
	}

	// A tumbling frame never evicts: with window.evict armed, an EPOCHS
	// tumbling fold keeps emitting and the point never fires.
	faultinject.Arm(faultinject.PointWindowEvict, faultinject.Spec{Kind: faultinject.KindError})
	sub, err := eng.Subscribe(context.Background(), "SELECT sum(v) OVER (EPOCHS 1 TUMBLING) FROM ticks", sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	appendTicks(t, eng, 2)
	collectEmissions(t, sub, 3)
	sub.Close()
	if n := faultinject.Fired(faultinject.PointWindowEvict); n != 0 {
		t.Fatalf("a tumbling fold evicted: window.evict fired %d times", n)
	}
	faultinject.Reset()

	if _, err := eng.Query(sql, sudaf.Rewrite); err != nil {
		t.Fatalf("engine unhealthy after window chaos: %v", err)
	}
}

// appendTicks appends n two-row batches to windowEngine's table, each one
// EPOCHS tick, continuing its stream.
func appendTicks(t *testing.T, eng *sudaf.Engine, n int) {
	t.Helper()
	for range n {
		tbl, err := eng.Session().Catalog().Table("ticks")
		if err != nil {
			t.Fatal(err)
		}
		lo := tbl.NumRows()
		if _, err := eng.Append(context.Background(), "ticks", windowTable("ticks", lo, lo+2, 7)); err != nil {
			t.Fatal(err)
		}
	}
}

// faulted subscribes with a fault point armed, appends ticks ticks, and
// requires the stream to close with the injected fault in Err.
func faulted(t *testing.T, eng *sudaf.Engine, sql string, mode sudaf.Mode, ticks int) {
	t.Helper()
	sub, err := eng.Subscribe(context.Background(), sql, mode)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	appendTicks(t, eng, ticks)
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-sub.Results():
			if !ok {
				if sub.Err() == nil || !errors.Is(sub.Err(), faultinject.ErrInjected) {
					t.Fatalf("%s (%v): subscription Err=%v, want injected fault", sql, mode, sub.Err())
				}
				return
			}
		case <-deadline:
			t.Fatalf("%s (%v): faulted subscription never closed its stream", sql, mode)
		}
	}
}

// windowMatrixAggs are the differential matrix's aggregates over v: sum
// (the refold path on non-integral values), max (the O(1) path),
// count(*), qm, and gm (a product state: §5.3's sign-split case over
// signed data).
const windowMatrixAggs = "max(v), count(*), qm(v), gm(v)"

// windowMatrixAppends continue a 3-row seed with appends of one row, of
// bucket-exact sizes and of sizes that straddle a 3-row bucket. The last
// one completes a bucket and an even tick, so every configuration emits
// on it and its last result means every note was processed.
var windowMatrixAppends = []int{1, 2, 3, 4, 1, 6, 1}

// matrixBatch is one WindowResult a configuration must produce: the rows
// its FirstRow/LastRow bound and the frames its table rows value.
type matrixBatch struct {
	first, last int
	frames      [][2]int
}

// matrixBatches models what a subscription emits for the given notes
// (the snapshot, then one per append), independently of the engine: a
// sliding ROWS note is one batch of one frame per new row bounded by the
// new rows; every other frame is its own batch bounded by its rows.
func matrixBatches(epochs, sliding bool, n int, notes [][2]int) []matrixBatch {
	var out []matrixBatch
	one := func(lo, hi int) { out = append(out, matrixBatch{lo, hi - 1, [][2]int{{lo, hi}}}) }
	for i, nt := range notes {
		switch {
		case !epochs && sliding:
			b := matrixBatch{first: nt[0], last: nt[1] - 1}
			for r := nt[0]; r < nt[1]; r++ {
				b.frames = append(b.frames, [2]int{max(0, r-n), r + 1})
			}
			out = append(out, b)
		case !epochs:
			for end := nt[0] + 1; end <= nt[1]; end++ {
				if end%n == 0 {
					one(end-n, end)
				}
			}
		case sliding:
			one(notes[max(0, i-n)][0], nt[1])
		case (i+1)%n == 0:
			one(notes[i+1-n][0], nt[1])
		}
	}
	return out
}

// windowMatrixCounters pins the engine's fold counters per configuration:
// sudaf_window_rows_evicted_total, _fast_folds_total, _refolds_total.
var windowMatrixCounters = map[string][3]int64{
	"subscribe/ROWS 3 PRECEDING/baseline":   {0, 0, 0},
	"subscribe/ROWS 3 PRECEDING/rewrite":    {85, 42, 63},
	"subscribe/ROWS 3 PRECEDING/share":      {85, 42, 63},
	"subscribe/ROWS 0 PRECEDING/baseline":   {0, 0, 0},
	"subscribe/ROWS 0 PRECEDING/rewrite":    {100, 45, 60},
	"subscribe/ROWS 0 PRECEDING/share":      {100, 45, 60},
	"subscribe/ROWS 3 TUMBLING/baseline":    {0, 0, 0},
	"subscribe/ROWS 3 TUMBLING/rewrite":     {0, 14, 21},
	"subscribe/ROWS 3 TUMBLING/share":       {0, 14, 21},
	"subscribe/EPOCHS 1 PRECEDING/baseline": {0, 0, 0},
	"subscribe/EPOCHS 1 PRECEDING/rewrite":  {70, 16, 24},
	"subscribe/EPOCHS 1 PRECEDING/share":    {70, 16, 24},
	"subscribe/EPOCHS 2 PRECEDING/baseline": {0, 0, 0},
	"subscribe/EPOCHS 2 PRECEDING/rewrite":  {65, 16, 24},
	"subscribe/EPOCHS 2 PRECEDING/share":    {65, 16, 24},
	"subscribe/EPOCHS 1 TUMBLING/baseline":  {0, 0, 0},
	"subscribe/EPOCHS 1 TUMBLING/rewrite":   {0, 16, 24},
	"subscribe/EPOCHS 1 TUMBLING/share":     {0, 16, 24},
	"subscribe/EPOCHS 2 TUMBLING/baseline":  {0, 0, 0},
	"subscribe/EPOCHS 2 TUMBLING/rewrite":   {0, 8, 12},
	"subscribe/EPOCHS 2 TUMBLING/share":     {0, 8, 12},
	"query/ROWS 3 PRECEDING/baseline":       {0, 0, 0},
	"query/ROWS 3 PRECEDING/rewrite":        {85, 42, 63},
	"query/ROWS 3 PRECEDING/share":          {119, 63, 84},
	"query/ROWS 0 PRECEDING/baseline":       {0, 0, 0},
	"query/ROWS 0 PRECEDING/rewrite":        {100, 45, 60},
	"query/ROWS 0 PRECEDING/share":          {140, 66, 81},
	"query/ROWS 3 TUMBLING/baseline":        {0, 0, 0},
	"query/ROWS 3 TUMBLING/rewrite":         {0, 14, 21},
	"query/ROWS 3 TUMBLING/share":           {0, 21, 28},
}

// TestWindowDifferentialMatrix is the window driver's differential
// matrix: subscriptions over {ROWS 3, ROWS 0, EPOCHS 1, EPOCHS 2} ×
// {PRECEDING, TUMBLING} × every mode, fed appends that land on, inside
// and across bucket boundaries, plus the one-shot ROWS queries over the
// final table. Every emission must be bit-identical to a cold query in
// the same mode over exactly its frame's rows; Seq must be contiguous,
// FirstRow/LastRow must follow the WindowResult contract, and the fold
// counters must read their pinned values.
func TestWindowDifferentialMatrix(t *testing.T) {
	notes := [][2]int{{0, 3}}
	for _, k := range windowMatrixAppends {
		lo := notes[len(notes)-1][1]
		notes = append(notes, [2]int{lo, lo + k})
	}
	total := notes[len(notes)-1][1]
	specs := []struct {
		over            string
		epochs, sliding bool
		n               int
	}{
		{"ROWS 3 PRECEDING", false, true, 3},
		{"ROWS 0 PRECEDING", false, true, 0},
		{"ROWS 3 TUMBLING", false, false, 3},
		{"EPOCHS 1 PRECEDING", true, true, 1},
		{"EPOCHS 2 PRECEDING", true, true, 2},
		{"EPOCHS 1 TUMBLING", true, false, 1},
		{"EPOCHS 2 TUMBLING", true, false, 2},
	}
	// check compares an emitted row with a cold query over its frame's
	// rows, registered once per engine as their own table.
	check := func(t *testing.T, eng *sudaf.Engine, mode sudaf.Mode, tbl *sudaf.Table, row int, fr [2]int) {
		t.Helper()
		name := fmt.Sprintf("cold_%d_%d", fr[0], fr[1])
		if _, err := eng.Session().Catalog().Table(name); err != nil {
			if err := eng.Register(windowTable(name, fr[0], fr[1], 7)); err != nil {
				t.Fatal(err)
			}
		}
		cold, err := eng.Query("SELECT sum(v), "+windowMatrixAggs+" FROM "+name, mode)
		if err != nil {
			t.Fatal(err)
		}
		for c := range tbl.Cols {
			got, want := tbl.Cols[c].F[row], cold.Table.Cols[c].F[0]
			if !bitsEqual(got, want) {
				t.Fatalf("frame [%d,%d) col %d: %#x (%v) != cold %#x (%v)",
					fr[0], fr[1], c, math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	}
	counters := func(t *testing.T, eng *sudaf.Engine, key string, emits int) {
		t.Helper()
		m := eng.Metrics().ExpvarFunc()().(map[string]any)
		if got := counter(m, "sudaf_window_emits_total"); got != int64(emits) {
			t.Errorf("sudaf_window_emits_total = %d, want %d", got, emits)
		}
		got := [3]int64{
			counter(m, "sudaf_window_rows_evicted_total"),
			counter(m, "sudaf_window_fast_folds_total"),
			counter(m, "sudaf_window_refolds_total"),
		}
		if want, ok := windowMatrixCounters[key]; !ok || got != want {
			t.Errorf("{evicted, fast, refolds} = %v, want %v", got, want)
		}
	}
	for _, sp := range specs {
		for _, m := range windowModes {
			key := "subscribe/" + sp.over + "/" + m.name
			t.Run(key, func(t *testing.T) {
				eng := sudaf.Open(sudaf.Options{Workers: 2})
				if err := eng.Register(windowTable("s", 0, notes[0][1], 7)); err != nil {
					t.Fatal(err)
				}
				sql := fmt.Sprintf("SELECT sum(v) OVER (%s), %s FROM s", sp.over, windowMatrixAggs)
				sub, err := eng.Subscribe(context.Background(), sql, m.mode)
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				for _, nt := range notes[1:] {
					if _, err := eng.Append(context.Background(), "s", windowTable("s", nt[0], nt[1], 7)); err != nil {
						t.Fatal(err)
					}
				}
				want := matrixBatches(sp.epochs, sp.sliding, sp.n, notes)
				emits := 0
				for i, wr := range collectEmissions(t, sub, len(want)) {
					w := want[i]
					if wr.Seq != int64(i+1) || wr.FirstRow != w.first || wr.LastRow != w.last ||
						wr.Table.NumRows() != len(w.frames) {
						t.Fatalf("result %d: Seq=%d rows [%d,%d] with %d frames, want Seq=%d [%d,%d] with %d",
							i, wr.Seq, wr.FirstRow, wr.LastRow, wr.Table.NumRows(), i+1, w.first, w.last, len(w.frames))
					}
					for r, fr := range w.frames {
						check(t, eng, m.mode, wr.Table, r, fr)
					}
					emits += len(w.frames)
				}
				sub.Close()
				counters(t, eng, key, emits)
			})
		}
	}
	for _, sp := range specs[:3] {
		for _, m := range windowModes {
			key := "query/" + sp.over + "/" + m.name
			t.Run(key, func(t *testing.T) {
				eng := sudaf.Open(sudaf.Options{Workers: 2})
				if err := eng.Register(windowTable("s", 0, total, 7)); err != nil {
					t.Fatal(err)
				}
				res, err := eng.Query(fmt.Sprintf("SELECT sum(v) OVER (%s), %s FROM s", sp.over, windowMatrixAggs), m.mode)
				if err != nil {
					t.Fatal(err)
				}
				frames := slidingFrames(total, sp.n)
				if !sp.sliding {
					frames = tumblingFrames(total, sp.n)
				}
				if res.Table.NumRows() != len(frames) {
					t.Fatalf("emitted %d windows, want %d", res.Table.NumRows(), len(frames))
				}
				for e, fr := range frames {
					check(t, eng, m.mode, res.Table, e, fr)
				}
				counters(t, eng, key, len(frames))
			})
		}
	}
}
