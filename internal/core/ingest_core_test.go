package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/errs"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

func salesDelta(rows int) *storage.Table {
	d := storage.NewTable("store_sales",
		storage.NewColumn("ss_item_sk", storage.KindInt),
		storage.NewColumn("ss_store_sk", storage.KindInt),
		storage.NewColumn("ss_sold_date_sk", storage.KindInt),
		storage.NewColumn("ss_list_price", storage.KindFloat),
		storage.NewColumn("ss_sales_price", storage.KindFloat))
	for i := 0; i < rows; i++ {
		d.Col("ss_item_sk").AppendInt(int64(i % 40))
		d.Col("ss_store_sk").AppendInt(int64(i % 6))
		d.Col("ss_sold_date_sk").AppendInt(int64(i % 100))
		d.Col("ss_list_price").AppendFloat(float64(20 + i%30))
		d.Col("ss_sales_price").AppendFloat(float64(10 + i%15))
	}
	return d
}

// TestAppendInvalidatesMaintlessEntry: a cache entry whose maintenance
// record has a key reading the pre-append table version but no statement
// to re-plan must be dropped by Append (targeted invalidation), with the
// reason recorded both in the AppendResult and in the cache's event
// stream so the next query surfaces it.
func TestAppendInvalidatesMaintlessEntry(t *testing.T) {
	s := newTestSession(t, 500, 2)
	key := mustKey(t, s, "SELECT ss_item_sk, count(*) FROM store_sales GROUP BY ss_item_sk")
	fp := key.String()
	keyCol := storage.NewColumn("ss_item_sk", storage.KindInt)
	keyCol.AppendInt(0)
	gt := cache.NewGroupTable(fp, []string{"ss_item_sk"}, []cache.GroupKey{{0, 0}}, []*storage.Column{keyCol})
	gt.Maint = &maintRec{key: *key}
	if err := gt.AddState(&cache.CachedState{State: canonical.State{Op: canonical.OpCount}, Vals: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	c := s.stateCache()
	c.Put(gt)

	res, err := s.Append(context.Background(), "store_sales", salesDelta(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.EntriesInvalidated != 1 {
		t.Fatalf("invalidated %d entries, want 1 (events %v)", res.EntriesInvalidated, res.Events)
	}
	if _, ok := cacheEntry(c, fp); ok {
		t.Fatal("maint-less entry survived the append")
	}
	if len(res.Events) == 0 || !strings.Contains(res.Events[0], "not delta-maintainable") {
		t.Fatalf("events = %v, want an invalidation note", res.Events)
	}
	// The note is also queued on the cache and drained by the next query.
	qres, err := s.Query(q2, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range qres.Events {
		found = found || strings.Contains(ev, "invalidated")
	}
	if !found {
		t.Fatalf("query events = %v, want the ingest invalidation note", qres.Events)
	}
}

// TestAppendMigratesJoinEntry: entries over a join migrate by running the
// delta slice of the fact table against the full dimension tables; the
// next identical query answers from the merged states without a scan.
func TestAppendMigratesJoinEntry(t *testing.T) {
	s := newTestSession(t, 2000, 2)
	if _, err := s.Query(q1, ModeShare); err != nil {
		t.Fatal(err)
	}
	res, err := s.Append(context.Background(), "store_sales", salesDelta(77))
	if err != nil {
		t.Fatal(err)
	}
	if res.EntriesMigrated == 0 {
		t.Fatalf("join entry not migrated: %+v", res)
	}
	if res.StatesMaintained == 0 {
		t.Fatal("no states folded during migration")
	}
	qres, err := s.Query(q1, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if !qres.FullCacheHit || qres.RowsScanned != 0 {
		t.Fatalf("post-append q1: hit=%v scanned=%d, want a full hit from migrated states",
			qres.FullCacheHit, qres.RowsScanned)
	}
}

// TestAppendToDimension: appending to a *dimension* table routes the
// delta run through (full fact) ⋈ (new dimension rows) — the exact set
// of join tuples the append adds — so the entry is either migrated or,
// if anything about the plan resists it, dropped. Either way the rerun
// query must agree with baseline.
func TestAppendToDimension(t *testing.T) {
	s := newTestSession(t, 1000, 2)
	if _, err := s.Query(q1, ModeShare); err != nil {
		t.Fatal(err)
	}
	dd := storage.NewTable("date_dim",
		storage.NewColumn("d_date_sk", storage.KindInt),
		storage.NewColumn("d_year", storage.KindInt))
	dd.Col("d_date_sk").AppendInt(99999)
	dd.Col("d_year").AppendInt(2050)
	res, err := s.Append(context.Background(), "date_dim", dd)
	if err != nil {
		t.Fatal(err)
	}
	if res.EntriesMigrated+res.EntriesInvalidated == 0 {
		t.Fatalf("append to dimension left q1's entry untouched: %+v", res)
	}
	qres, err := s.Query(q1, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Query(q1, ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, qres.Table, base.Table, "post-dimension-append share vs baseline")
}

// superseded lists the cached entries whose maintenance record names a
// table version the catalog no longer serves.
func superseded(s *Session) []string {
	var fps []string
	for _, gt := range s.stateCache().Snapshot() {
		if mr, ok := gt.Maint.(*maintRec); ok && !mr.key.Current(s.cat) {
			fps = append(fps, gt.Fingerprint)
		}
	}
	return fps
}

// TestAppendCanceledPublishesNothing: an append whose context is already
// canceled or past its deadline fails with ErrCanceled before touching
// anything — no new version, no invalidated or migrated entry, no dropped
// or maintained view, no IngestStats count.
func TestAppendCanceledPublishesNothing(t *testing.T) {
	s := newTestSession(t, 500, 2)
	const qv = "SELECT ss_store_sk, sum(ss_sales_price) FROM store_sales GROUP BY ss_store_sk"
	if err := s.Materialize("by_store", qv); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(q1, ModeShare); err != nil {
		t.Fatal(err)
	}
	before, _ := s.cat.Table("store_sales")
	entries, stats := len(s.stateCache().Snapshot()), s.IngestStats()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, ctx := range map[string]context.Context{"canceled": canceled, "expired": expired} {
		res, err := s.Append(ctx, "store_sales", salesDelta(10))
		if !errors.Is(err, errs.ErrCanceled) || res != nil {
			t.Fatalf("%s: Append = %v, %v; want an ErrCanceled error", name, res, err)
		}
		if now, _ := s.cat.Table("store_sales"); now != before {
			t.Errorf("%s: published store_sales@%d over @%d", name, now.Epoch, before.Epoch)
		}
		if n := len(s.stateCache().Snapshot()); n != entries {
			t.Errorf("%s: %d cache entries, want the %d there before", name, n, entries)
		}
		if got := s.Views(); len(got) != 1 {
			t.Errorf("%s: views %v, want by_store kept", name, got)
		}
		if got := s.IngestStats(); got != stats {
			t.Errorf("%s: IngestStats moved from %+v to %+v", name, stats, got)
		}
		if evs := s.stateCache().DrainEvents(); len(evs) != 0 {
			t.Errorf("%s: events %v", name, evs)
		}
	}
	res, err := s.Query(q1, ModeShare)
	if err != nil || !res.FullCacheHit {
		t.Fatalf("after the canceled appends q1 = %v (full hit %v), want the warm entry", err, res != nil && res.FullCacheHit)
	}
}

// TestAppendDropsSupersededEntriesUnpinned: with no query holding a
// snapshot, an append leaves no entry of the superseded version behind —
// the migrated successor serves the next query.
func TestAppendDropsSupersededEntriesUnpinned(t *testing.T) {
	s := newTestSession(t, 500, 2)
	for _, q := range []string{q1, q2} {
		if _, err := s.Query(q, ModeShare); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Append(context.Background(), "store_sales", salesDelta(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.EntriesMigrated == 0 {
		t.Fatalf("nothing migrated: %+v", res)
	}
	if stale := superseded(s); len(stale) != 0 {
		t.Errorf("superseded entries outlived an unpinned append: %v", stale)
	}
	if n := len(s.stateCache().Snapshot()); n != res.EntriesMigrated {
		t.Errorf("%d cache entries, want the %d migrated", n, res.EntriesMigrated)
	}
	if qres, err := s.Query(q1, ModeShare); err != nil || !qres.FullCacheHit {
		t.Fatalf("post-append q1 = %v, want a full hit on the migrated entry", err)
	}
}

// TestAppendKeepsSupersededEntryPinned holds a batch between two members
// across an append, the way QueryBatch runs them: both members run
// against one pinned snapshot. The second must still be served the entry
// the first used, so the superseded version stays while the pin does, and
// goes with the first append after it is released.
func TestAppendKeepsSupersededEntryPinned(t *testing.T) {
	s := newTestSession(t, 500, 2)
	ctx := context.Background()
	if _, err := s.Query(q1, ModeShare); err != nil {
		t.Fatal(err)
	}
	// One append first, so the entry the batch reads is a maintained one,
	// whose ⊕-merged values a cold rescan need not match bit for bit.
	if _, err := s.Append(ctx, "store_sales", salesDelta(10)); err != nil {
		t.Fatal(err)
	}
	member := func(qc *queryCtx) *Result {
		t.Helper()
		stmt, err := sqlparse.Parse(q1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.runStmt(ctx, &queryCtx{cat: qc.cat, cache: qc.cache}, stmt, ModeShare, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	qc := &queryCtx{cat: s.pin(), cache: s.stateCache()}
	first := member(qc)
	if _, err := s.Append(ctx, "store_sales", salesDelta(10)); err != nil {
		t.Fatal(err)
	}
	if len(superseded(s)) == 0 {
		t.Fatal("the append dropped the superseded entry while a batch held it")
	}
	second := member(qc)
	s.unpin()
	if !first.FullCacheHit || !second.FullCacheHit {
		t.Errorf("members full hits %v, %v; want both served the pinned entry", first.FullCacheHit, second.FullCacheHit)
	}
	tablesEqual(t, second.Table, first.Table, "batch members across an append")
	if _, err := s.Append(ctx, "store_sales", salesDelta(10)); err != nil {
		t.Fatal(err)
	}
	if stale := superseded(s); len(stale) != 0 {
		t.Errorf("superseded entries outlived the pin's release: %v", stale)
	}
}
