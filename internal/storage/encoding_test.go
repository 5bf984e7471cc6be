package storage

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

// buildSealed builds and seals a single-column table with explicit
// segment boundaries.
func buildSealed(t *testing.T, col *Column, segs []int) *Table {
	t.Helper()
	tbl := NewTable("t", col)
	tbl.Segments = segs
	tbl.Seal()
	return tbl
}

// decodeAll re-materializes a column's rows through its encodings and
// compares them bit-for-bit with the dense arrays: an RLE segment from
// its runs, a FOR segment through the packing a saved block holds.
func decodeAll(t *testing.T, c *Column) {
	t.Helper()
	for _, es := range c.EncodedSegments() {
		e := es.Enc
		n := es.Hi - es.Lo
		switch {
		case e.Kind == EncFOR:
			dst := make([]int64, n)
			unpackFOR(packFOR(c.I[es.Lo:es.Hi], e.ForBase, int(e.ForWidth)), e.ForBase, int(e.ForWidth), dst)
			for i, v := range dst {
				if v != c.I[es.Lo+i] {
					t.Fatalf("FOR seg [%d,%d) row %d: decoded %d, dense %d", es.Lo, es.Hi, i, v, c.I[es.Lo+i])
				}
			}
		case e.Kind == EncRLE:
			for i := 0; i < n; i++ {
				r := e.runIndexOf(i)
				var same bool
				switch c.Kind {
				case KindFloat:
					same = math.Float64bits(e.RunVals[r]) == math.Float64bits(c.F[es.Lo+i])
				case KindInt:
					same = e.RunValsI[r] == c.I[es.Lo+i]
				default:
					same = e.RunValsC[r] == c.Codes[es.Lo+i]
				}
				if !same {
					t.Fatalf("%s RLE seg [%d,%d) row %d (run %d) differs from the dense row", c.Kind, es.Lo, es.Hi, i, r)
				}
			}
		}
	}
}

func TestEncodeDecodeRLEFloatAdversarial(t *testing.T) {
	c := NewColumn("x", KindFloat)
	// Long runs of adversarial values: NaN, ±Inf, ±0, ordinary.
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 3.25}
	for _, v := range vals {
		for i := 0; i < 200; i++ {
			c.AppendFloat(v)
		}
	}
	tbl := buildSealed(t, c, []int{c.Len()})
	col := tbl.Col("x")
	segs := col.EncodedSegments()
	if len(segs) != 1 || segs[0].Enc.Kind != EncRLE {
		t.Fatalf("want one RLE segment, got %+v", segs)
	}
	// ±0 and NaN runs must stay distinct/merged by bit pattern: 6 runs.
	if got := len(segs[0].Enc.RunEnds); got != 6 {
		t.Fatalf("run count = %d, want 6", got)
	}
	decodeAll(t, col)
}

func TestEncodeDecodeFORInts(t *testing.T) {
	c := NewColumn("k", KindInt)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		c.AppendInt(1_000_000 + rng.Int63n(4096)) // narrow span → FOR
	}
	tbl := buildSealed(t, c, []int{c.Len()})
	segs := tbl.Col("k").EncodedSegments()
	if len(segs) != 1 || segs[0].Enc.Kind != EncFOR {
		t.Fatalf("want one FOR segment, got kind %v", segs[0].Enc.Kind)
	}
	decodeAll(t, tbl.Col("k"))
}

func TestEncodeDecodeFORNegativeSpan(t *testing.T) {
	c := NewColumn("k", KindInt)
	for i := 0; i < 1000; i++ {
		c.AppendInt(int64(i%100) - 50) // spans negative..positive
	}
	tbl := buildSealed(t, c, []int{c.Len()})
	decodeAll(t, tbl.Col("k"))
}

func TestEncodeDecodeDictRuns(t *testing.T) {
	c := NewColumn("s", KindString)
	for i := 0; i < 3000; i++ {
		c.AppendString([]string{"TN", "CA", "NY"}[i/1000])
	}
	tbl := buildSealed(t, c, []int{c.Len()})
	segs := tbl.Col("s").EncodedSegments()
	if len(segs) != 1 || segs[0].Enc.Kind != EncRLE {
		t.Fatalf("want RLE over codes, got %+v", segs)
	}
	decodeAll(t, tbl.Col("s"))
}

func TestEncodeTinySegmentSkipped(t *testing.T) {
	c := NewColumn("x", KindFloat)
	for i := 0; i < 8; i++ { // below minEncodeRows
		c.AppendFloat(1)
	}
	tbl := buildSealed(t, c, []int{8})
	for _, es := range tbl.Col("x").EncodedSegments() {
		if es.Enc.Kind != EncNone {
			t.Fatalf("tiny segment encoded as %v", es.Enc.Kind)
		}
	}
}

func TestEncodeAppendOntoSealed(t *testing.T) {
	c := NewColumn("x", KindInt)
	for i := 0; i < 2048; i++ {
		c.AppendInt(7)
	}
	tbl := buildSealed(t, c, []int{2048})
	delta := NewTable("t", NewColumn("x", KindInt))
	for i := 0; i < 1024; i++ {
		delta.Col("x").AppendInt(9)
	}
	t2, err := tbl.AppendRows(delta)
	if err != nil {
		t.Fatal(err)
	}
	t2.Seal() // registration seals the successor, encoding the new tail segment
	// Old version keeps its encodings; new version covers both segments.
	old := tbl.Col("x").EncodedSegments()
	neu := t2.Col("x").EncodedSegments()
	if len(old) != 1 {
		t.Fatalf("old version has %d segments", len(old))
	}
	if len(neu) != 2 {
		t.Fatalf("appended version has %d encoded segments, want 2", len(neu))
	}
	if neu[1].Lo != 2048 || neu[1].Hi != 3072 {
		t.Fatalf("new segment window [%d,%d)", neu[1].Lo, neu[1].Hi)
	}
	decodeAll(t, t2.Col("x"))
}

func TestRunCoverageWindows(t *testing.T) {
	c := NewColumn("x", KindFloat)
	for i := 0; i < 4096; i++ {
		c.AppendFloat(float64(i / 1024))
	}
	tbl := buildSealed(t, c, []int{2048, 4096})
	col := tbl.Col("x")
	if _, _, ok := col.RunCoverage(0, 4096); !ok {
		t.Fatal("full window should be covered by RLE segments")
	}
	if _, _, ok := col.RunCoverage(100, 3000); !ok {
		t.Fatal("interior window spanning both segments should be covered")
	}
	if _, integral, ok := col.RunCoverage(0, 0); !ok || !integral {
		t.Fatal("empty window is trivially covered")
	}
	// Sum over runs equals dense sum.
	var dense, viaRuns float64
	for _, v := range col.F[100:3000] {
		dense += v
	}
	col.ForEachRun(100, 3000, func(v float64, n int) { viaRuns += v * float64(n) })
	if dense != viaRuns {
		t.Fatalf("ForEachRun sum %v != dense %v", viaRuns, dense)
	}
}

func TestRunCoverageDeclines(t *testing.T) {
	// High-entropy ints land in FOR (or stats-only), which must decline
	// run coverage.
	c := NewColumn("k", KindInt)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2048; i++ {
		c.AppendInt(rng.Int63n(1 << 20))
	}
	tbl := buildSealed(t, c, []int{2048})
	if _, _, ok := tbl.Col("k").RunCoverage(0, 2048); ok {
		t.Fatal("non-RLE segment must decline run coverage")
	}
}

// ---- SDF2 persistence round-trips ----

// tablesIdentical compares every cell bit-for-bit.
func tablesIdentical(t *testing.T, a, b *Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() || len(a.Cols) != len(b.Cols) {
		t.Fatalf("shape: %dx%d vs %dx%d", a.NumRows(), len(a.Cols), b.NumRows(), len(b.Cols))
	}
	if a.Epoch != b.Epoch {
		t.Fatalf("epoch: %d vs %d", a.Epoch, b.Epoch)
	}
	for ci, ca := range a.Cols {
		cb := b.Cols[ci]
		if ca.Name != cb.Name || ca.Kind != cb.Kind {
			t.Fatalf("col %d: %s/%v vs %s/%v", ci, ca.Name, ca.Kind, cb.Name, cb.Kind)
		}
		for i := 0; i < a.NumRows(); i++ {
			switch ca.Kind {
			case KindFloat:
				if math.Float64bits(ca.F[i]) != math.Float64bits(cb.F[i]) {
					t.Fatalf("col %s row %d: %v vs %v", ca.Name, i, ca.F[i], cb.F[i])
				}
			case KindInt:
				if ca.I[i] != cb.I[i] {
					t.Fatalf("col %s row %d: %d vs %d", ca.Name, i, ca.I[i], cb.I[i])
				}
			default:
				if ca.StringAt(i) != cb.StringAt(i) {
					t.Fatalf("col %s row %d: %q vs %q", ca.Name, i, ca.StringAt(i), cb.StringAt(i))
				}
			}
		}
	}
}

// adversarialTable exercises every encoding path: RLE floats with
// NaN/±Inf/-0 runs, FOR ints, high-entropy stats-only ints, dict
// strings, a constant column and an alternating column.
func adversarialTable(rows int) *Table {
	rng := rand.New(rand.NewSource(31))
	tbl := NewTable("adv",
		NewColumn("runs_f", KindFloat),
		NewColumn("for_i", KindInt),
		NewColumn("rand_i", KindInt),
		NewColumn("cat", KindString),
		NewColumn("const_f", KindFloat),
		NewColumn("alt_i", KindInt))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 2.5}
	for i := 0; i < rows; i++ {
		tbl.Col("runs_f").AppendFloat(specials[(i/97)%len(specials)])
		tbl.Col("for_i").AppendInt(500 + rng.Int63n(1000))
		tbl.Col("rand_i").AppendInt(rng.Int63())
		tbl.Col("cat").AppendString([]string{"a", "b", "c", "d"}[(i/53)%4])
		tbl.Col("const_f").AppendFloat(math.Pi)
		tbl.Col("alt_i").AppendInt(int64(i % 2))
	}
	tbl.Segments = []int{rows / 3, 2 * rows / 3, rows}
	tbl.Seal()
	return tbl
}

func TestSegFileRoundTripAdversarial(t *testing.T) {
	tbl := adversarialTable(3000)
	path := filepath.Join(t.TempDir(), "adv"+SegFileExt)
	if err := tbl.SaveSegFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSegFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, tbl, back)
	// Loaded tables carry usable encodings (same segment map).
	for ci, c := range tbl.Cols {
		bc := back.Cols[ci]
		if len(bc.EncodedSegments()) != len(c.EncodedSegments()) {
			t.Fatalf("col %s: %d encoded segments reloaded, want %d",
				c.Name, len(bc.EncodedSegments()), len(c.EncodedSegments()))
		}
		decodeAll(t, bc)
	}
}

func TestSegFileRoundTripEmptyTable(t *testing.T) {
	tbl := NewTable("empty", NewColumn("x", KindFloat), NewColumn("s", KindString))
	tbl.Seal()
	path := filepath.Join(t.TempDir(), "e"+SegFileExt)
	if err := tbl.SaveSegFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSegFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, tbl, back)
}

func TestSegFileRoundTripAfterAppend(t *testing.T) {
	tbl := adversarialTable(1500)
	delta := NewTable("adv",
		NewColumn("runs_f", KindFloat),
		NewColumn("for_i", KindInt),
		NewColumn("rand_i", KindInt),
		NewColumn("cat", KindString),
		NewColumn("const_f", KindFloat),
		NewColumn("alt_i", KindInt))
	for i := 0; i < 600; i++ {
		delta.Col("runs_f").AppendFloat(1)
		delta.Col("for_i").AppendInt(7)
		delta.Col("rand_i").AppendInt(int64(i))
		delta.Col("cat").AppendString("e") // new dict entry
		delta.Col("const_f").AppendFloat(math.Pi)
		delta.Col("alt_i").AppendInt(3)
	}
	t2, err := tbl.AppendRows(delta)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a"+SegFileExt)
	if err := t2.SaveSegFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSegFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, t2, back)
}

func TestDecodeTableRejectsCorruption(t *testing.T) {
	tbl := adversarialTable(600)
	data, err := EncodeTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(data); n += 37 {
		if _, err := DecodeTable(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		} else if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("truncation to %d: error %v not wrapped in ErrCorruptSegment", n, err)
		}
	}
	// Single-byte flips: either a clean error or a successful decode of
	// equal row count (bit flips in value payloads are undetectable) —
	// but never a panic.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		if bt, err := DecodeTable(mut); err == nil {
			if bt.NumRows() < 0 {
				t.Fatal("negative row count")
			}
		} else if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("flip trial %d: error %v not wrapped in ErrCorruptSegment", trial, err)
		}
	}
}

// FuzzDecodeTable drives the segment decoder with arbitrary bytes: it
// must return a typed error or a valid table, never panic.
func FuzzDecodeTable(f *testing.F) {
	small := NewTable("s", NewColumn("x", KindFloat), NewColumn("k", KindInt), NewColumn("c", KindString))
	for i := 0; i < 64; i++ {
		small.Col("x").AppendFloat(float64(i % 4))
		small.Col("k").AppendInt(int64(i % 8))
		small.Col("c").AppendString([]string{"p", "q"}[i%2])
	}
	small.Segments = []int{32, 64}
	small.Seal()
	if seed, err := EncodeTable(small); err == nil {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	if seed, err := EncodeTable(adversarialTable(200)); err == nil {
		f.Add(seed)
	}
	f.Add([]byte("SDF2"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		bt, err := DecodeTable(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("error %v not wrapped in ErrCorruptSegment", err)
			}
			return
		}
		if err := bt.Validate(); err != nil {
			t.Fatalf("decoded table fails validation: %v", err)
		}
	})
}
