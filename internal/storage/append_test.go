package storage

import (
	"math"
	"testing"
)

// TestStatsInvalidatedByGrowth pins the stale-stats bug: Stats() used to
// be memoized with sync.Once, so a column that grew after the first call
// kept reporting the old (min, max) forever — and the executor sized its
// dense group-key table from them.
func TestStatsInvalidatedByGrowth(t *testing.T) {
	c := NewColumn("k", KindInt)
	c.AppendInt(5)
	if min, max := c.Stats(); min != 5 || max != 5 {
		t.Fatalf("stats = (%v, %v), want (5, 5)", min, max)
	}
	for i := int64(0); i < 300; i++ {
		c.AppendInt(i)
	}
	if min, max := c.Stats(); min != 0 || max != 299 {
		t.Fatalf("stats after growth = (%v, %v), want (0, 299)", min, max)
	}
	// Repeated calls at a stable length serve the cache (same values).
	if min, max := c.Stats(); min != 0 || max != 299 {
		t.Fatalf("cached stats = (%v, %v), want (0, 299)", min, max)
	}
}

// TestStatsEmptyColumn: an empty numeric column reports (+Inf, -Inf) —
// the sentinel the executor's integer-domain guard must handle.
func TestStatsEmptyColumn(t *testing.T) {
	for _, kind := range []Kind{KindInt, KindFloat} {
		c := NewColumn("k", kind)
		min, max := c.Stats()
		if !math.IsInf(min, 1) || !math.IsInf(max, -1) {
			t.Fatalf("%v empty stats = (%v, %v), want (+Inf, -Inf)", kind, min, max)
		}
	}
}

func TestSealedColumnRejectsInPlaceAppend(t *testing.T) {
	tbl := sample(t)
	tbl.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("append to sealed column did not panic")
		}
	}()
	tbl.Col("id").AppendInt(99)
}

func makeDelta(ids []int64, vs []float64, tags []string) *Table {
	d := NewTable("t",
		NewColumn("id", KindInt),
		NewColumn("v", KindFloat),
		NewColumn("tag", KindString))
	for i := range ids {
		d.Col("id").AppendInt(ids[i])
		d.Col("v").AppendFloat(vs[i])
		d.Col("tag").AppendString(tags[i])
	}
	return d
}

// TestAppendRowsVersioning: AppendRows builds a successor version whose
// readers see old+delta while holders of the old version see exactly the
// rows they pinned, including the dictionary prefix of string columns.
func TestAppendRowsVersioning(t *testing.T) {
	v1 := sample(t)
	v1.Seal()
	v1.Epoch = NextEpoch()
	oldRows, oldDict := v1.NumRows(), v1.Col("tag").DictSize()

	v2, err := v1.AppendRows(makeDelta(
		[]int64{100, 101}, []float64{-1, -2}, []string{"b", "zebra"}))
	if err != nil {
		t.Fatal(err)
	}
	if v2.NumRows() != oldRows+2 {
		t.Fatalf("v2 rows = %d, want %d", v2.NumRows(), oldRows+2)
	}
	if v2.Epoch == v1.Epoch || v2.Epoch == 0 {
		t.Fatalf("epochs: v1=%d v2=%d", v1.Epoch, v2.Epoch)
	}
	if len(v2.Segments) != 2 || v2.Segments[0] != oldRows || v2.Segments[1] != oldRows+2 {
		t.Fatalf("segments = %v", v2.Segments)
	}
	// Old version pinned: same row count, same dict.
	if v1.NumRows() != oldRows {
		t.Fatalf("v1 grew to %d rows", v1.NumRows())
	}
	if v1.Col("tag").DictSize() != oldDict {
		t.Fatalf("v1 dict grew to %d", v1.Col("tag").DictSize())
	}
	// Codes are prefix-stable: existing strings keep their code in v2, so
	// group keys computed against either version line up.
	if v2.Col("tag").Code("b") != v1.Col("tag").Code("b") {
		t.Fatal("existing string changed code across versions")
	}
	if v2.Col("tag").StringAt(oldRows+1) != "zebra" {
		t.Fatalf("new string decodes to %q", v2.Col("tag").StringAt(oldRows+1))
	}
	if got := v2.Col("id").I[oldRows]; got != 100 {
		t.Fatalf("delta row = %d", got)
	}
	// Prefix rows are shared, not copied.
	for i := 0; i < oldRows; i++ {
		if v2.Col("v").F[i] != v1.Col("v").F[i] {
			t.Fatalf("prefix row %d differs", i)
		}
	}
}

// TestAppendRowsSiblingVersions: two successors built from the same
// parent must not clobber each other through shared spare capacity —
// tail ownership moves to the first child, so the second reallocates.
func TestAppendRowsSiblingVersions(t *testing.T) {
	v1 := sample(t)
	v1.Seal()
	n := v1.NumRows()
	a, err := v1.AppendRows(makeDelta([]int64{1000}, []float64{111}, []string{"a"}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := v1.AppendRows(makeDelta([]int64{2000}, []float64{222}, []string{"b"}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Col("id").I[n] != 1000 || b.Col("id").I[n] != 2000 {
		t.Fatalf("sibling tails: a=%d b=%d", a.Col("id").I[n], b.Col("id").I[n])
	}
	if a.Col("v").F[n] != 111 || b.Col("v").F[n] != 222 {
		t.Fatalf("sibling tails: a=%v b=%v", a.Col("v").F[n], b.Col("v").F[n])
	}
}

func TestAppendRowsSchemaMismatch(t *testing.T) {
	v1 := sample(t)
	v1.Seal()
	bad := NewTable("t", NewColumn("id", KindInt))
	if _, err := v1.AppendRows(bad); err == nil {
		t.Fatal("column-count mismatch accepted")
	}
	bad2 := NewTable("t",
		NewColumn("id", KindFloat), // wrong kind
		NewColumn("v", KindFloat),
		NewColumn("tag", KindString))
	if _, err := v1.AppendRows(bad2); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

// TestViewsAreCapacityCapped: Slice and Renamed views must not be able
// to alias a successor version's tail — their slice headers are capped
// at the view's length, so appending to the parent chain reallocates
// rather than writing into storage the view can reach.
func TestViewsAreCapacityCapped(t *testing.T) {
	v1 := sample(t)
	v1.Seal()
	sl := v1.Slice(2, 7)
	rn := v1.Col("v").Renamed("w")
	for _, c := range []*Column{sl.Col("v"), rn} {
		if cap(c.F) != len(c.F) {
			t.Fatalf("view %q: cap %d > len %d", c.Name, cap(c.F), len(c.F))
		}
	}
	if cap(sl.Col("id").I) != len(sl.Col("id").I) {
		t.Fatal("int view not capped")
	}
	if cap(sl.Col("tag").Codes) != len(sl.Col("tag").Codes) {
		t.Fatal("codes view not capped")
	}
	// Views are sealed.
	defer func() {
		if recover() == nil {
			t.Fatal("append to view did not panic")
		}
	}()
	sl.Col("v").AppendFloat(1)
}

// TestAppendRowsBoundsSpareCapacity: a table grown by small deltas keeps
// at most 1/16 of a column as unused capacity (append's 1/4 growth used to
// leave up to a quarter), and still extends in place between
// reallocations instead of copying the column on every append.
func TestAppendRowsBoundsSpareCapacity(t *testing.T) {
	const base, deltaRows, appends = 4000, 10, 200
	tbl := NewTable("t", NewColumn("id", KindInt), NewColumn("v", KindFloat), NewColumn("tag", KindString))
	for i := 0; i < base; i++ {
		tbl.Col("id").AppendInt(int64(i))
		tbl.Col("v").AppendFloat(float64(i))
		tbl.Col("tag").AppendString("a")
	}
	tbl.Seal()
	delta := makeDelta(make([]int64, deltaRows), make([]float64, deltaRows), make([]string, deltaRows))
	moves := 0
	for k := 0; k < appends; k++ {
		next, err := tbl.AppendRows(delta)
		if err != nil {
			t.Fatal(err)
		}
		f := next.Col("v").F
		if &f[0] != &tbl.Col("v").F[0] {
			moves++
		}
		// Until the first move the column lives in the array its builder
		// grew; from then on the headroom is appendTail's.
		if spare := cap(f) - len(f); moves > 0 && spare > len(f)/16 {
			t.Fatalf("append %d: %d spare slots on %d rows, want at most 1/16", k, spare, len(f))
		}
		tbl = next
	}
	if moves == 0 || moves > appends/4 {
		t.Errorf("%d of %d appends moved the column; want a few (amortized growth), not none or most", moves, appends)
	}
}
