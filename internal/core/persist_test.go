package core

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sudaf/internal/storage"
)

// newPersistSession builds a session persisting to dir, with a fact
// table plus one dimension. Data includes NaN-free floats with runs so
// both RLE and FOR segments appear in the saved files.
func newPersistSession(t *testing.T, rows int, dir string) *Session {
	t.Helper()
	s := NewSession(Options{Workers: 2, DataDir: dir})
	rng := rand.New(rand.NewSource(7))

	dim := storage.NewTable("pstore",
		storage.NewColumn("p_store_sk", storage.KindInt),
		storage.NewColumn("p_state", storage.KindString))
	states := []string{"TN", "CA", "TN", "NY"}
	for i := 0; i < 4; i++ {
		dim.Col("p_store_sk").AppendInt(int64(i))
		dim.Col("p_state").AppendString(states[i])
	}
	fact := storage.NewTable("psales",
		storage.NewColumn("p_item_sk", storage.KindInt),
		storage.NewColumn("ps_store_sk", storage.KindInt),
		storage.NewColumn("p_price", storage.KindFloat))
	for i := 0; i < rows; i++ {
		fact.Col("p_item_sk").AppendInt(int64(i / 64)) // long runs → RLE
		fact.Col("ps_store_sk").AppendInt(int64(rng.Intn(4)))
		fact.Col("p_price").AppendFloat(10 + rng.Float64()*90)
	}
	for _, tbl := range []*storage.Table{dim, fact} {
		if err := s.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

const persistQ = `SELECT p_item_sk, avg(p_price), stddev(p_price)
FROM psales, pstore
WHERE ps_store_sk = p_store_sk and p_state = 'TN'
GROUP BY p_item_sk ORDER BY p_item_sk;`

// tablesBitIdentical fails unless both result tables agree to the bit.
func tablesBitIdentical(t *testing.T, a, b *storage.Table, label string) {
	t.Helper()
	if a.NumRows() != b.NumRows() || len(a.Cols) != len(b.Cols) {
		t.Fatalf("%s: shape mismatch %dx%d vs %dx%d", label,
			a.NumRows(), len(a.Cols), b.NumRows(), len(b.Cols))
	}
	for c := range a.Cols {
		for i := 0; i < a.NumRows(); i++ {
			va, vb := a.Cols[c].AsFloat(i), b.Cols[c].AsFloat(i)
			if math.Float64bits(va) != math.Float64bits(vb) {
				t.Fatalf("%s: col %d row %d: %v (%#x) vs %v (%#x)", label,
					c, i, va, math.Float64bits(va), vb, math.Float64bits(vb))
			}
		}
	}
}

// TestPersistRestartWarmCache is the headline persistence test: save a
// session after a Share-mode query, open a fresh session over the same
// DataDir, and the same query must answer entirely from restored cached
// states — zero base rows scanned — with bit-identical results.
func TestPersistRestartWarmCache(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistSession(t, 20000, dir)
	res1, err := s1.Query(persistQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}

	s2 := NewSession(Options{Workers: 2, DataDir: dir})
	if err := s2.LoadError(); err != nil {
		t.Fatalf("load error: %v", err)
	}
	for _, name := range []string{"psales", "pstore"} {
		if !s2.Catalog().Has(name) {
			t.Fatalf("table %q not restored", name)
		}
	}
	res2, err := s2.Query(persistQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RowsScanned != 0 {
		t.Fatalf("post-restart share query scanned %d rows, want 0 (cold cache)", res2.RowsScanned)
	}
	tablesBitIdentical(t, res1.Table, res2.Table, "pre-save vs post-restart")
}

// TestPersistRestartDerivedQuery checks Theorem 4.1 sharing across a
// restart: a *different* query whose states are derivable from the
// restored ones must also scan zero rows.
func TestPersistRestartDerivedQuery(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistSession(t, 10000, dir)
	if _, err := s1.Query(persistQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	s2 := newRestartSession(t, dir)
	const derived = `SELECT p_item_sk, qm(p_price)
FROM psales, pstore
WHERE ps_store_sk = p_store_sk and p_state = 'TN'
GROUP BY p_item_sk ORDER BY p_item_sk;`
	res, err := s2.Query(derived, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != 0 {
		t.Fatalf("derived query scanned %d rows, want 0 (qm derivable from avg/stddev states)", res.RowsScanned)
	}
}

func newRestartSession(t *testing.T, dir string) *Session {
	t.Helper()
	s := NewSession(Options{Workers: 2, DataDir: dir})
	if err := s.LoadError(); err != nil {
		t.Fatalf("load error: %v", err)
	}
	return s
}

// TestPersistEpochsSurvive: restored tables keep their epochs, and the
// global epoch counter is advanced past them so new tables can never
// collide with restored fingerprints.
func TestPersistEpochsSurvive(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistSession(t, 1000, dir)
	tb, err := s1.Catalog().Table("psales")
	if err != nil {
		t.Fatal(err)
	}
	epoch := tb.Epoch
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	s2 := newRestartSession(t, dir)
	tb2, err := s2.Catalog().Table("psales")
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Epoch != epoch {
		t.Fatalf("epoch changed across restart: %d → %d", epoch, tb2.Epoch)
	}
	fresh := storage.NewTable("fresh", storage.NewColumn("x", storage.KindFloat))
	fresh.Col("x").AppendFloat(1)
	if err := s2.Register(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Epoch <= epoch {
		t.Fatalf("fresh epoch %d not past restored epoch %d", fresh.Epoch, epoch)
	}
}

// TestPersistAppendAfterRestart: appends to a restored table must
// invalidate (not wrongly serve) restored cache entries — the restored
// entries carry no maintenance record.
func TestPersistAppendAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistSession(t, 5000, dir)
	if _, err := s1.Query(persistQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	s2 := newRestartSession(t, dir)
	delta := storage.NewTable("psales",
		storage.NewColumn("p_item_sk", storage.KindInt),
		storage.NewColumn("ps_store_sk", storage.KindInt),
		storage.NewColumn("p_price", storage.KindFloat))
	delta.Col("p_item_sk").AppendInt(3)
	delta.Col("ps_store_sk").AppendInt(0) // TN store
	delta.Col("p_price").AppendFloat(55)
	if _, err := s2.Append(context.Background(), "psales", delta); err != nil {
		t.Fatal(err)
	}
	res, err := s2.Query(persistQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned == 0 {
		t.Fatal("post-append share query served stale restored states (scanned 0 rows)")
	}
	// And the answer must match a from-scratch computation.
	base, err := s2.Query(persistQ, ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, base.Table, res.Table, "post-append share vs baseline")
}

// persistOtherTable registers a table no persistQ entry reads.
func persistOtherTable(t *testing.T, s *Session) {
	t.Helper()
	other := storage.NewTable("pother", storage.NewColumn("o", storage.KindFloat))
	other.Col("o").AppendFloat(1)
	if err := s.Register(other); err != nil {
		t.Fatal(err)
	}
}

// appendOther appends one row to pother and returns the append result.
func appendOther(t *testing.T, s *Session) *AppendResult {
	t.Helper()
	d := storage.NewTable("pother", storage.NewColumn("o", storage.KindFloat))
	d.Col("o").AppendFloat(2)
	res, err := s.Append(context.Background(), "pother", d)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPersistEntryTables: a saved entry records the tables its key reads,
// so after a restart an append to a table it does not read leaves it warm.
func TestPersistEntryTables(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistSession(t, 3000, dir)
	persistOtherTable(t, s1)
	if _, err := s1.Query(persistQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	pc := readCacheSnapshot(t, dir)
	if len(pc.Entries) != 1 || len(pc.Entries[0].Tables) != 2 {
		t.Fatalf("saved entries %+v, want one entry recording psales and pstore", pc.Entries)
	}
	s2 := newRestartSession(t, dir)
	if res := appendOther(t, s2); res.EntriesInvalidated != 0 {
		t.Fatalf("append to an unread table invalidated %d entries: %v", res.EntriesInvalidated, res.Events)
	}
	res, err := s2.Query(persistQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != 0 {
		t.Fatalf("restored entry went cold: scanned %d rows", res.RowsScanned)
	}
}

// TestPersistSnapshotWithoutTables: an entry saved without the tables
// field (the snapshot shape before it existed) still loads warm, and the
// first append to any table invalidates it — colder, never stale.
func TestPersistSnapshotWithoutTables(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistSession(t, 3000, dir)
	persistOtherTable(t, s1)
	if _, err := s1.Query(persistQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	pc := readCacheSnapshot(t, dir)
	for i := range pc.Entries {
		pc.Entries[i].Tables = nil
	}
	data, err := json.Marshal(pc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"tables"`) {
		t.Fatal("stripped snapshot still carries tables")
	}
	if err := os.WriteFile(filepath.Join(dir, cacheFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newRestartSession(t, dir)
	res, err := s2.Query(persistQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != 0 {
		t.Fatalf("snapshot without tables loaded cold: scanned %d rows", res.RowsScanned)
	}
	ares := appendOther(t, s2)
	if ares.EntriesInvalidated != 1 {
		t.Fatalf("append invalidated %d entries, want 1: %v", ares.EntriesInvalidated, ares.Events)
	}
	res, err = s2.Query(persistQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned == 0 {
		t.Fatal("entry without tables survived an append")
	}
}

// readCacheSnapshot decodes the saved state-cache snapshot.
func readCacheSnapshot(t *testing.T, dir string) persistedCache {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, cacheFileName))
	if err != nil {
		t.Fatal(err)
	}
	var pc persistedCache
	if err := json.Unmarshal(data, &pc); err != nil {
		t.Fatal(err)
	}
	return pc
}

// TestSaveRequiresDataDir: Save on an in-memory session errors.
func TestSaveRequiresDataDir(t *testing.T) {
	s := NewSession(Options{Workers: 1})
	if err := s.Save(); err == nil {
		t.Fatal("Save without DataDir succeeded")
	}
}

// TestPersistCorruptCacheSnapshot: a damaged state_cache.json surfaces
// on LoadError but the tables still load and queries still work.
func TestPersistCorruptCacheSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistSession(t, 2000, dir)
	if _, err := s1.Query(persistQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state_cache.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(Options{Workers: 1, DataDir: dir})
	if err := s2.LoadError(); err == nil {
		t.Fatal("corrupt cache snapshot not reported")
	} else if !strings.Contains(err.Error(), "load cache") {
		t.Fatalf("unexpected load error: %v", err)
	}
	if !s2.Catalog().Has("psales") {
		t.Fatal("tables should load despite corrupt cache snapshot")
	}
	if _, err := s2.Query(persistQ, ModeShare); err != nil {
		t.Fatal(err)
	}
}

// TestPersistCorruptSegmentFile: a truncated .seg file is skipped with
// an error; the rest of the catalog still loads.
func TestPersistCorruptSegmentFile(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistSession(t, 2000, dir)
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tables", "psales"+storage.SegFileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(Options{Workers: 1, DataDir: dir})
	if err := s2.LoadError(); err == nil {
		t.Fatal("truncated segment file not reported")
	}
	if s2.Catalog().Has("psales") {
		t.Fatal("truncated table should not register")
	}
	if !s2.Catalog().Has("pstore") {
		t.Fatal("intact table should still load")
	}
}

// TestPersistSaveIsRepeatable: Save twice, load, still consistent.
func TestPersistSaveIsRepeatable(t *testing.T) {
	dir := t.TempDir()
	s1 := newPersistSession(t, 1000, dir)
	if _, err := s1.Query(persistQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	s2 := newRestartSession(t, dir)
	res, err := s2.Query(persistQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != 0 {
		t.Fatalf("scanned %d rows, want 0", res.RowsScanned)
	}
}
