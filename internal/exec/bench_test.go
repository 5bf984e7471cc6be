package exec

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/data"
	"sudaf/internal/expr"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// The keyed-scan benchmarks: the three steps between a key column and its
// aggregation states — group-id assignment plus merge, join build plus
// probe, ORDER BY … LIMIT selection — at the shapes of the paper's query
// model 2 and the TPC-DS star join. CI runs them with -benchtime 1x as a
// smoke test; compare ns/op and allocs/op across commits by hand.

var benchSink interface{}

func benchCatalog(b *testing.B, tables ...*storage.Table) *catalog.Catalog {
	b.Helper()
	cat := catalog.New()
	for _, t := range tables {
		if err := cat.Register(t); err != nil {
			b.Fatal(err)
		}
	}
	return cat
}

// momentStates are the states of a second-moment UDAF (qm, std, var).
func momentStates(b testing.TB, col string) []canonical.State {
	return []canonical.State{
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
		{Op: canonical.OpSum, Base: expr.MustParse(col)},
		{Op: canonical.OpSum, F: mustChain(b, "x^2"), Base: expr.MustParse(col)},
	}
}

// BenchmarkGroupBy10k is query model 2's scan: 16 morsels, 10k groups.
func BenchmarkGroupBy10k(b *testing.B) {
	e := NewEngine(benchCatalog(b, data.Milan(16*MorselRows, 10_000, 1)), 2)
	states := momentStates(b, "internet_traffic")
	sql := "SELECT square_id, sum(internet_traffic) FROM milan_data GROUP BY square_id"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = runStates(b, e, sql, states)
	}
}

// BenchmarkGroupBy10kMinMax is query model 2's scan with one min or one
// max state: the keyed compare-and-keep loops, which every morsel
// restarts from ±Inf with a few rows per group.
func BenchmarkGroupBy10kMinMax(b *testing.B) {
	e := NewEngine(benchCatalog(b, data.Milan(16*MorselRows, 10_000, 1)), 2)
	for _, op := range []canonical.AggOp{canonical.OpMin, canonical.OpMax} {
		states := []canonical.State{{Op: op, Base: expr.MustParse("internet_traffic")}}
		b.Run(op.String(), func(b *testing.B) {
			sql := "SELECT square_id, " + op.String() + "(internet_traffic) FROM milan_data GROUP BY square_id"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = runStates(b, e, sql, states)
			}
		})
	}
}

// BenchmarkGrand1M is query model 1's scan: the same states with no
// GROUP BY over 16 morsels, every row folding into one group.
func BenchmarkGrand1M(b *testing.B) {
	e := NewEngine(benchCatalog(b, data.Milan(16*MorselRows, 10_000, 1)), 2)
	states := momentStates(b, "internet_traffic")
	sql := "SELECT sum(internet_traffic) FROM milan_data"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = runStates(b, e, sql, states)
	}
}

// BenchmarkGroupBySparseDense is the first-appearance pass's worst case:
// 16 morsels over a 64K-wide dense domain whose odd keys never occur, so
// the pass reads every row before the morsels start.
func BenchmarkGroupBySparseDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	t := storage.NewTable("sparse", storage.NewColumn("k", storage.KindInt), storage.NewColumn("x", storage.KindFloat))
	for i := 0; i < 16*MorselRows; i++ {
		t.Col("k").AppendInt(2 * rng.Int63n(maxDenseKeyWidth/2))
		t.Col("x").AppendFloat(rng.Float64())
	}
	e := NewEngine(benchCatalog(b, t), 2)
	states := momentStates(b, "x")
	sql := "SELECT k, sum(x) FROM sparse GROUP BY k"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = runStates(b, e, sql, states)
	}
}

// BenchmarkGroupByDelta is the delta-maintenance scan of an append: 2,000
// rows over the 10k-square domain, one morsel that sees a fifth of it.
func BenchmarkGroupByDelta(b *testing.B) {
	e := NewEngine(benchCatalog(b, data.Milan(2000, 10_000, 1)), 2)
	states := momentStates(b, "internet_traffic")
	sql := "SELECT square_id, sum(internet_traffic) FROM milan_data GROUP BY square_id"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = runStates(b, e, sql, states)
	}
}

// BenchmarkJoinStar is a five-way star join: four dimension builds, four
// probes of a shrinking fact row set. Its filters are the join
// workload's without cd_marital_status and cd_education_status, so the
// customer_demographics build keeps half its rows.
func BenchmarkJoinStar(b *testing.B) {
	benchJoin(b, `cd_gender = 'M' and (p_channel_email = 'N' or p_channel_event = 'N') and d_year = 2000`)
}

// BenchmarkJoinStarSelective is the join workload's star join, filters
// and all: the customer_demographics build keeps 28 of 1,920 rows, so
// probing it first shrinks the fact rows before the other builds see
// them.
func BenchmarkJoinStarSelective(b *testing.B) {
	benchJoin(b, `cd_gender = 'M' and cd_marital_status = 'S' and cd_education_status = 'College' and
	(p_channel_email = 'N' or p_channel_event = 'N') and d_year = 2000`)
}

// benchJoin times the five-way star join under the given dimension
// filters, at scale 2 (240,000 fact rows).
func benchJoin(b *testing.B, filters string) {
	e := NewEngine(benchCatalog(b, data.TPCDS(2, 1)...), 2)
	states := momentStates(b, "ss_sales_price")
	sql := `SELECT i_item_id, sum(ss_sales_price)
FROM store_sales, customer_demographics, date_dim, item, promotion
WHERE ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk and
	ss_cdemo_sk = cd_demo_sk and ss_promo_sk = p_promo_sk and
	` + filters + `
GROUP BY i_item_id`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = runStates(b, e, sql, states)
	}
}

// BenchmarkTopK is query model 2's tail: 20 of 10k groups by key.
func BenchmarkTopK(b *testing.B) {
	e := NewEngine(benchCatalog(b, data.Milan(4*MorselRows, 10_000, 1)), 2)
	sql := "SELECT square_id, sum(internet_traffic) FROM milan_data GROUP BY square_id ORDER BY square_id LIMIT 20"
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	dp, err := e.PrepareData(stmt)
	if err != nil {
		b.Fatal(err)
	}
	gr := runStates(b, e, sql, momentStates(b, "internet_traffic")[1:2])
	spec := OutputSpec{
		Items:     []sqlparse.SelectItem{{Expr: &expr.Var{Name: "square_id"}}, {Expr: &expr.Var{Name: Placeholder(0)}}},
		Finishers: []Finisher{func(vals [][]float64, g int) float64 { return vals[0][g] }},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := BuildOutput(context.Background(), stmt, dp, gr, spec)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

// BenchmarkSelection is the filter layer alone: one selection over a
// 1M-row table, reported per base row. Shapes: the square_id range a
// share_thrash miss rescans (0.2 % of rows kept), a string equality, the
// TPC-DS promotion disjunction on a promotion-shaped 1M-row table, and
// the three-equality customer_demographics conjunction on a 1M-row table
// of its columns. The sweep cases span an int column, a string column's
// codes and a float column at 0.2, 6, 50 and 99 % of rows kept, in random
// row order, on both sides of the sparse/dense kernel switch.
func BenchmarkSelection(b *testing.B) {
	const rows = 1 << 20
	promo := storage.NewTable("promotion",
		storage.NewColumn("p_channel_email", storage.KindString),
		storage.NewColumn("p_channel_event", storage.KindString))
	rng := rand.New(rand.NewSource(1))
	yn := []string{"N", "Y"}
	for i := 0; i < rows; i++ {
		promo.Col("p_channel_email").AppendString(yn[rng.Intn(2)])
		promo.Col("p_channel_event").AppendString(yn[rng.Intn(2)])
	}
	milan := data.Milan(rows, 10_000, 1)
	type selCase struct {
		name  string
		t     *storage.Table
		where string
	}
	cases := []selCase{
		{"int_range", milan, "square_id >= 5000 and square_id < 5020"},
		{"string_eq", promo, "p_channel_email = 'N'"},
		{"or", promo, "p_channel_email = 'N' or p_channel_event = 'N'"},
		{"demographics", demographicsTable(rows, rng),
			"cd_gender = 'M' and cd_marital_status = 'S' and cd_education_status = 'College'"},
	}
	sweep := sweepTable(rows, rng)
	for _, k := range sweepPerTenThousand {
		pct := strconv.FormatFloat(float64(k)/100, 'f', -1, 64) + "%"
		cases = append(cases,
			selCase{"int_" + pct, sweep, fmt.Sprintf("i >= 0 and i < %d", k)},
			selCase{"code_" + pct, sweep, fmt.Sprintf("s%d = 'y'", k)},
			selCase{"float_" + pct, sweep, fmt.Sprintf("f >= 0 and f < %d", k)})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			stmt, err := sqlparse.Parse("SELECT count(*) FROM " + c.t.Name + " WHERE " + c.where)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel, err := selection(context.Background(), c.t, stmt.Where)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = sel
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.t.NumRows()), "ns/row")
		})
	}
}

// demographicsTable is customer_demographics' three filtered columns at
// n rows, drawn uniformly from TPC-DS's 2 × 5 × 7 values.
func demographicsTable(n int, rng *rand.Rand) *storage.Table {
	cols := []struct {
		name string
		vals []string
	}{
		{"cd_gender", []string{"M", "F"}},
		{"cd_marital_status", []string{"S", "M", "D", "W", "U"}},
		{"cd_education_status", []string{"College", "2 yr Degree", "4 yr Degree", "Advanced Degree", "Primary", "Secondary", "Unknown"}},
	}
	var out []*storage.Column
	for _, c := range cols {
		col := storage.NewColumn(c.name, storage.KindString)
		for i := 0; i < n; i++ {
			col.AppendString(c.vals[rng.Intn(len(c.vals))])
		}
		out = append(out, col)
	}
	return storage.NewTable("customer_demographics", out...)
}

// sweepPerTenThousand are the sweep's selectivities, in rows kept per
// 10,000: 0.2, 6, 50 and 99 %.
var sweepPerTenThousand = []int{20, 600, 5000, 9900}

// sweepTable has n rows of i, an int uniform on [0, 10000), f = i + 0.5,
// and for each selectivity k of the sweep a string column sk holding "y"
// on k of 10,000 rows, in expectation, and one of eight other words
// elsewhere.
func sweepTable(n int, rng *rand.Rand) *storage.Table {
	i := storage.NewColumn("i", storage.KindInt)
	f := storage.NewColumn("f", storage.KindFloat)
	for r := 0; r < n; r++ {
		v := rng.Intn(10_000)
		i.AppendInt(int64(v))
		f.AppendFloat(float64(v) + 0.5)
	}
	cols := []*storage.Column{i, f}
	for _, k := range sweepPerTenThousand {
		s := storage.NewColumn(fmt.Sprintf("s%d", k), storage.KindString)
		for r := 0; r < n; r++ {
			if rng.Intn(10_000) < k {
				s.AppendString("y")
			} else {
				s.AppendString(fmt.Sprintf("n%d", rng.Intn(8)))
			}
		}
		cols = append(cols, s)
	}
	return storage.NewTable("sweep", cols...)
}
