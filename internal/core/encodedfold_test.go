package core

import (
	"fmt"
	"math"
	"testing"

	"sudaf/internal/storage"
)

// foldTable builds a sealed single table with every adversarial shape
// the run-fold path can meet: integral runs (folds engage), fractional
// runs (fold declines: non-integral), NaN and ±Inf runs (min/max still
// fold; sums decline), huge-magnitude runs (2^52 guard declines),
// alternating values and a constant column.
func foldTable(rows int) *storage.Table {
	tbl := storage.NewTable("ft",
		storage.NewColumn("int_runs", storage.KindFloat),
		storage.NewColumn("frac_runs", storage.KindFloat),
		storage.NewColumn("nan_runs", storage.KindFloat),
		storage.NewColumn("inf_runs", storage.KindFloat),
		storage.NewColumn("huge_runs", storage.KindFloat),
		storage.NewColumn("alt", storage.KindFloat),
		storage.NewColumn("const_c", storage.KindFloat),
		storage.NewColumn("gm_runs", storage.KindFloat),
		storage.NewColumn("grp", storage.KindInt))
	nanv := []float64{math.NaN(), 1, 2}
	infv := []float64{math.Inf(1), math.Inf(-1), 3}
	for i := 0; i < rows; i++ {
		tbl.Col("int_runs").AppendFloat(float64(1 + (i/257)%5))
		tbl.Col("frac_runs").AppendFloat(0.5 + float64((i/301)%4))
		tbl.Col("nan_runs").AppendFloat(nanv[(i/199)%3])
		tbl.Col("inf_runs").AppendFloat(infv[(i/173)%3])
		tbl.Col("huge_runs").AppendFloat(float64(int64(1)<<50) * float64(1+(i/211)%3))
		tbl.Col("alt").AppendFloat(float64(i % 2))
		tbl.Col("const_c").AppendFloat(7)
		// gm: long runs of 1 with rare short runs of 2 — the product
		// stays exactly representable so the prod fold engages.
		v := 1.0
		if (i/1000)%8 == 7 && i%1000 < 20 {
			v = 2
		}
		tbl.Col("gm_runs").AppendFloat(v)
		tbl.Col("grp").AppendInt(int64(i / (rows / 4)))
	}
	tbl.Seal()
	return tbl
}

var foldQueries = []string{
	`SELECT count(), sum(int_runs), min(int_runs), max(int_runs), avg(int_runs) FROM ft;`,
	`SELECT sum(frac_runs), stddev(frac_runs), min(frac_runs) FROM ft;`,
	`SELECT min(nan_runs), max(nan_runs), sum(nan_runs), count() FROM ft;`,
	`SELECT min(inf_runs), max(inf_runs), sum(inf_runs) FROM ft;`,
	`SELECT sum(huge_runs), min(huge_runs), max(huge_runs) FROM ft;`,
	`SELECT sum(alt), qm(alt), count() FROM ft;`,
	`SELECT sum(const_c), stddev(const_c), min(const_c), max(const_c) FROM ft;`,
	`SELECT gm(gm_runs), sum(gm_runs) FROM ft;`,
	`SELECT qm(int_runs), stddev(int_runs) FROM ft;`,
	// Grouped and filtered variants: folds must stand down, results
	// must still match.
	`SELECT grp, sum(int_runs), min(nan_runs) FROM ft GROUP BY grp ORDER BY grp;`,
	`SELECT sum(int_runs) FROM ft WHERE grp >= 1;`,
}

// TestEncodedFoldsBitIdentical is the tentpole differential: every
// query must produce bit-for-bit identical results with encoded-segment
// folds on and off, across all three execution modes and worker counts.
func TestEncodedFoldsBitIdentical(t *testing.T) {
	tbl := foldTable(20000)
	for _, workers := range []int{1, 4} {
		for _, mode := range []Mode{ModeBaseline, ModeRewrite, ModeShare} {
			s := NewSession(Options{Workers: workers})
			if err := s.Register(tbl); err != nil {
				t.Fatal(err)
			}
			for qi, q := range foldQueries {
				label := fmt.Sprintf("w=%d mode=%v q%d", workers, mode, qi)
				s.eng.SetEncodedFolds(true)
				on, err := s.Query(q, mode)
				if err != nil {
					t.Fatalf("%s folds-on: %v", label, err)
				}
				s.ClearCache()
				s.eng.SetEncodedFolds(false)
				off, err := s.Query(q, mode)
				if err != nil {
					t.Fatalf("%s folds-off: %v", label, err)
				}
				s.ClearCache()
				tablesBitIdentical(t, on.Table, off.Table, label)
			}
		}
	}
}

// TestEncodedFoldsEngage proves the fold path actually runs for
// integral run data (the differential alone would pass if folds never
// engaged).
func TestEncodedFoldsEngage(t *testing.T) {
	s := NewSession(Options{Workers: 2})
	if err := s.Register(foldTable(20000)); err != nil {
		t.Fatal(err)
	}
	before := storage.RunFoldsExecuted()
	if _, err := s.Query(`SELECT count(), sum(int_runs), min(int_runs), max(int_runs) FROM ft;`, ModeShare); err != nil {
		t.Fatal(err)
	}
	if got := storage.RunFoldsExecuted(); got <= before {
		t.Fatalf("no run-folds executed (counter %d → %d)", before, got)
	}
}

// TestEncodedFoldsProdEngages: the guarded product fold engages on
// exactly-representable run products.
func TestEncodedFoldsProdEngages(t *testing.T) {
	s := NewSession(Options{Workers: 1})
	if err := s.Register(foldTable(20000)); err != nil {
		t.Fatal(err)
	}
	before := storage.RunFoldsExecuted()
	res, err := s.Query(`SELECT gm(gm_runs) FROM ft;`, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if got := storage.RunFoldsExecuted(); got <= before {
		t.Fatalf("prod fold never engaged (counter %d → %d)", before, got)
	}
	if v := res.Table.Cols[0].AsFloat(0); v <= 0 || math.IsNaN(v) {
		t.Fatalf("gm = %v", v)
	}
}

// TestEncodedFoldsShardedDifferential: sharded sessions slice tables
// into per-shard views; the views carry the encodings and the fold path
// must stay bit-identical to the dense path.
func TestEncodedFoldsShardedDifferential(t *testing.T) {
	tbl := foldTable(16000)
	for _, q := range foldQueries {
		s := NewSession(Options{Workers: 2, Shards: 3})
		if err := s.Register(tbl); err != nil {
			t.Fatal(err)
		}
		s.eng.SetEncodedFolds(true)
		on, err := s.Query(q, ModeShare)
		if err != nil {
			t.Fatalf("sharded folds-on: %v", err)
		}
		s.ClearCache()
		s.eng.SetEncodedFolds(false)
		off, err := s.Query(q, ModeShare)
		if err != nil {
			t.Fatalf("sharded folds-off: %v", err)
		}
		tablesBitIdentical(t, on.Table, off.Table, "sharded "+q)
	}
}

// TestEncodedFoldsAfterAppend: appends create a new table version with
// an extra encoded tail segment; folds over the successor must agree
// with dense.
func TestEncodedFoldsAfterAppend(t *testing.T) {
	s := NewSession(Options{Workers: 2})
	if err := s.Register(foldTable(8000)); err != nil {
		t.Fatal(err)
	}
	delta := storage.NewTable("ft")
	src := foldTable(4000)
	for _, c := range src.Cols {
		_ = delta.AddColumn(c)
	}
	if _, err := s.Append(t.Context(), "ft", delta); err != nil {
		t.Fatal(err)
	}
	q := `SELECT count(), sum(int_runs), min(nan_runs), max(inf_runs) FROM ft;`
	s.eng.SetEncodedFolds(true)
	on, err := s.Query(q, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	s.ClearCache()
	s.eng.SetEncodedFolds(false)
	off, err := s.Query(q, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	tablesBitIdentical(t, on.Table, off.Table, "post-append")
}
