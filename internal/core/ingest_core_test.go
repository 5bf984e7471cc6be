package core

import (
	"context"
	"strings"
	"testing"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
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
