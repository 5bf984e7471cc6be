package exec

import (
	"context"
	"math/rand"
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

// BenchmarkJoinStar is the five-way star join of the join workload: four
// dimension builds, four probes of a shrinking fact row set.
func BenchmarkJoinStar(b *testing.B) {
	e := NewEngine(benchCatalog(b, data.TPCDS(2, 1)...), 2)
	states := momentStates(b, "ss_sales_price")
	sql := `SELECT i_item_id, sum(ss_sales_price)
FROM store_sales, customer_demographics, date_dim, item, promotion
WHERE ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk and
	ss_cdemo_sk = cd_demo_sk and ss_promo_sk = p_promo_sk and
	cd_gender = 'M' and (p_channel_email = 'N' or p_channel_event = 'N') and d_year = 2000
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
// share_thrash miss rescans (0.2 % of rows kept), a string equality, and
// the TPC-DS promotion disjunction on a promotion-shaped 1M-row table.
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
	for _, c := range []struct {
		name  string
		t     *storage.Table
		where string
	}{
		{"int_range", milan, "square_id >= 5000 and square_id < 5020"},
		{"string_eq", promo, "p_channel_email = 'N'"},
		{"or", promo, "p_channel_email = 'N' or p_channel_event = 'N'"},
	} {
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
