package sudaf_test

import (
	"strings"
	"testing"

	"sudaf"
)

// TestStringColumnComparison: a filter comparing two string columns of
// one table compares their values, not their per-column dictionary codes
// (here the codes of 'q' differ between a and b), in every mode; ordering
// comparisons of strings are rejected as they are for string literals.
func TestStringColumnComparison(t *testing.T) {
	for _, mode := range []sudaf.Mode{sudaf.Baseline, sudaf.Rewrite, sudaf.Share} {
		eng := sudaf.Open(sudaf.Options{Workers: 2})
		tbl := sudaf.NewTable("t",
			sudaf.NewColumn("a", sudaf.String),
			sudaf.NewColumn("b", sudaf.String),
			sudaf.NewColumn("x", sudaf.Float))
		for _, r := range []struct {
			a, b string
			x    float64
		}{{"p", "q", 1}, {"q", "q", 10}, {"r", "p", 100}} {
			tbl.Col("a").AppendString(r.a)
			tbl.Col("b").AppendString(r.b)
			tbl.Col("x").AppendFloat(r.x)
		}
		if err := eng.Register(tbl); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			where string
			want  float64
		}{{"a = b", 10}, {"b = a", 10}, {"a != b", 101}, {"b != a", 101}} {
			res, err := eng.Query("SELECT sum(x) FROM t WHERE "+c.where, mode)
			if err != nil {
				t.Fatalf("%v %s: %v", mode, c.where, err)
			}
			if got := res.Table.Cols[0].F[0]; got != c.want {
				t.Errorf("%v WHERE %s: sum(x) = %v, want %v", mode, c.where, got, c.want)
			}
		}
		for _, where := range []string{"a < b", "a >= b"} {
			_, err := eng.Query("SELECT sum(x) FROM t WHERE "+where, mode)
			if err == nil || !strings.Contains(err.Error(), "only supports = and !=") {
				t.Errorf("%v WHERE %s: err = %v, want the string-comparison error", mode, where, err)
			}
		}
	}
}
