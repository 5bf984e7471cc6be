package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"sudaf"
	"sudaf/internal/server/client"
)

// The oracle recomputes every answer the benchmark retains from the
// generated columns alone, with plain Go loops over per-group power sums.
// It shares no code with the engine: no canonical forms, no kernels, no
// sketch solver (quantiles are checked against the exact rank).

// Exact aggregates must agree to relTol. A sketch quantile is checked
// against the exact rank of the value it returned. The seed engine's
// moment sketch (k=10 raw and log moments of heavy-tailed traffic) is
// within 0.05 of the asked rank on the median group but not on every
// group (p99 ≈ 0.24 over 100-row groups, 0.20 on the 1M-row grand
// aggregate), so the oracle bounds the median rank error of a result at
// rankMedianTol and every single cell at rankCellTol, which still
// separates a working solver from a wrong answer.
const (
	relTol        = 1e-9
	rankCellTol   = 0.45
	rankMedianTol = 0.10
)

// acc holds one group's reference accumulators.
type acc struct {
	n, s1, s2, s3, s4, sln, sinv float64
	min, max                     float64
}

func newAcc() acc { return acc{min: math.Inf(1), max: math.Inf(-1)} }

func (a *acc) add(x float64) {
	a.n++
	a.s1 += x
	a.s2 += x * x
	a.s3 += x * x * x
	a.s4 += x * x * x * x
	a.sln += math.Log(x)
	a.sinv += 1 / x
	if x < a.min {
		a.min = x
	}
	if x > a.max {
		a.max = x
	}
}

func (a *acc) merge(b *acc) {
	a.n += b.n
	a.s1 += b.s1
	a.s2 += b.s2
	a.s3 += b.s3
	a.s4 += b.s4
	a.sln += b.sln
	a.sinv += b.sinv
	a.min = math.Min(a.min, b.min)
	a.max = math.Max(a.max, b.max)
}

// value evaluates an exact aggregate from the accumulators, following the
// textbook definitions (population variance, moment-ratio skewness and
// kurtosis) the engine's library documents.
func (a *acc) value(agg string) (float64, error) {
	n := a.n
	m := a.s1 / n
	v := a.s2/n - m*m
	switch agg {
	case "count":
		return n, nil
	case "sum":
		return a.s1, nil
	case "min":
		return a.min, nil
	case "max":
		return a.max, nil
	case "avg":
		return m, nil
	case "var":
		return v, nil
	case "std":
		return math.Sqrt(v), nil
	case "qm":
		return math.Sqrt(a.s2 / n), nil
	case "cm":
		return math.Cbrt(a.s3 / n), nil
	case "apm":
		return math.Sqrt(math.Sqrt(a.s4 / n)), nil
	case "gm":
		return math.Exp(a.sln / n), nil
	case "hm":
		return n / a.sinv, nil
	case "skewness":
		return (a.s3/n - 3*m*a.s2/n + 2*m*m*m) / math.Pow(v, 1.5), nil
	case "kurtosis":
		return (a.s4/n - 4*m*a.s3/n + 6*m*m*a.s2/n - 3*m*m*m*m) / (v * v), nil
	}
	return 0, fmt.Errorf("oracle: no reference for aggregate %q", agg)
}

func closeEnough(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	d := math.Abs(got - want)
	return d <= relTol*math.Max(math.Abs(got), math.Abs(want)) || d <= 1e-12
}

// outRow is one result row: the group key (-1 when ungrouped) and the
// aggregate columns.
type outRow struct {
	key  int64
	vals []float64
}

// itemKey turns an i_item_id ("AAAAAAAA00000042") into its item sk.
func itemKey(id string) int64 {
	if len(id) < 8 {
		return -1
	}
	k, err := strconv.ParseInt(id[len(id)-8:], 10, 64)
	if err != nil {
		return -1
	}
	return k
}

// tableRows reads an in-process result. grouped results carry the key in
// their first column.
func tableRows(t *sudaf.Table, grouped bool) []outRow {
	rows := make([]outRow, t.NumRows())
	for i := range rows {
		rows[i].key = -1
		for c, col := range t.Cols {
			switch {
			case c == 0 && grouped && col.Kind == sudaf.String:
				rows[i].key = itemKey(col.StringAt(i))
			case c == 0 && grouped:
				rows[i].key = col.AsInt(i)
			default:
				rows[i].vals = append(rows[i].vals, col.AsFloat(i))
			}
		}
	}
	return rows
}

// clientRows reads a result received over HTTP.
func clientRows(r *client.Result, grouped bool) []outRow {
	rows := make([]outRow, len(r.Rows))
	for i := range rows {
		rows[i].key = -1
		for c := range r.Columns {
			if c == 0 && grouped {
				rows[i].key = int64(r.Float(i, c))
			} else {
				rows[i].vals = append(rows[i].vals, r.Float(i, c))
			}
		}
	}
	return rows
}

// milanOracle is the reference for every query over milan_data.
type milanOracle struct {
	sq      []int64
	x       []float64
	accs    []acc // per square
	total   *acc  // cached merge of accs; nil after an append
	sorted  map[int64][]float64
	sortAll []float64
}

func newMilanOracle(t *sudaf.Table) *milanOracle {
	o := &milanOracle{sorted: map[int64][]float64{}}
	o.append(t)
	return o
}

// append folds rows into the accumulators; the benchmark calls it for the
// base table and then for every delta the engine has ingested.
func (o *milanOracle) append(t *sudaf.Table) {
	sq, x := t.Col("square_id").I, t.Col(trafficCol).F
	for i, s := range sq {
		for int(s) >= len(o.accs) {
			o.accs = append(o.accs, newAcc())
		}
		o.accs[s].add(x[i])
	}
	o.sq = append(o.sq, sq...)
	o.x = append(o.x, x...)
	o.total, o.sortAll = nil, nil
	for k := range o.sorted {
		delete(o.sorted, k)
	}
}

func (o *milanOracle) rows() int { return len(o.x) }

func (o *milanOracle) grand() *acc {
	if o.total == nil {
		t := newAcc()
		for i := range o.accs {
			if o.accs[i].n > 0 {
				t.merge(&o.accs[i])
			}
		}
		o.total = &t
	}
	return o.total
}

// values returns the sorted traffic of one square (key ≥ 0) or of the
// whole table (key < 0).
func (o *milanOracle) values(key int64) []float64 {
	if key < 0 {
		if o.sortAll == nil {
			o.sortAll = append([]float64(nil), o.x...)
			sort.Float64s(o.sortAll)
		}
		return o.sortAll
	}
	o.regionValues(key, key+1)
	return o.sorted[key]
}

// regionValues sorts the traffic of every square in [lo, hi) in one pass.
func (o *milanOracle) regionValues(lo, hi int64) {
	if _, ok := o.sorted[lo]; ok {
		return
	}
	for k := lo; k < hi; k++ {
		o.sorted[k] = nil
	}
	for i, s := range o.sq {
		if s >= lo && s < hi {
			o.sorted[s] = append(o.sorted[s], o.x[i])
		}
	}
	for k := lo; k < hi; k++ {
		sort.Float64s(o.sorted[k])
	}
}

// checkCell compares one cell. For a sketch quantile it returns the
// absolute rank error of the value (a rank step is 1/n wide, so small
// groups get that much slack); for an exact aggregate, 0.
func (o *milanOracle) checkCell(agg string, key int64, a *acc, got float64) (rankErr float64, err error) {
	if q, ok := sketchQuantile(agg); ok {
		vs := o.values(key)
		rank := float64(sort.SearchFloat64s(vs, math.Nextafter(got, math.Inf(1)))) / float64(len(vs))
		rankErr = math.Max(0, math.Abs(rank-q)-1/float64(len(vs)))
		if !(rankErr <= rankCellTol) || got < a.min || got > a.max {
			return rankErr, fmt.Errorf("%s key %d: value %g has rank %.4f, want %.2f±%.2f", agg, key, got, rank, q, rankCellTol)
		}
		return rankErr, nil
	}
	want, err := a.value(agg)
	if err != nil {
		return 0, err
	}
	if !closeEnough(got, want) {
		return 0, fmt.Errorf("%s key %d: got %.17g, want %.17g", agg, key, got, want)
	}
	return 0, nil
}

// check compares a result with the reference.
func (o *milanOracle) check(q qspec, rows []outRow) error {
	var keys []int64
	switch q.class {
	case clsGrand:
		if len(rows) != 1 || len(rows[0].vals) != 1 {
			return fmt.Errorf("%s grand: result shape %d rows", q.agg, len(rows))
		}
		_, err := o.checkCell(q.agg, -1, o.grand(), rows[0].vals[0])
		return err
	case clsModel2:
		for k := 0; k < len(o.accs) && len(keys) < 20; k++ {
			if o.accs[k].n > 0 {
				keys = append(keys, int64(k))
			}
		}
	case clsRegion:
		for k := q.lo; k < q.hi && int(k) < len(o.accs); k++ {
			if o.accs[k].n > 0 {
				keys = append(keys, k)
			}
		}
		if _, ok := sketchQuantile(q.agg); ok {
			o.regionValues(q.lo, q.hi)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	default:
		return fmt.Errorf("milan oracle: class %s", className[q.class])
	}
	if len(rows) != len(keys) {
		return fmt.Errorf("%s %s: %d rows, want %d", q.agg, className[q.class], len(rows), len(keys))
	}
	rankErrs := make([]float64, 0, len(keys))
	for i, k := range keys {
		if rows[i].key != k || len(rows[i].vals) != 1 {
			return fmt.Errorf("%s %s: row %d has key %d, want %d", q.agg, className[q.class], i, rows[i].key, k)
		}
		e, err := o.checkCell(q.agg, k, &o.accs[k], rows[i].vals[0])
		if err != nil {
			return err
		}
		rankErrs = append(rankErrs, e)
	}
	if m := median(rankErrs); len(rankErrs) >= 10 && m > rankMedianTol {
		return fmt.Errorf("%s %s [%d,%d): median rank error %.4f over %d groups, want ≤ %.2f",
			q.agg, className[q.class], q.lo, q.hi, m, len(rankErrs), rankMedianTol)
	}
	return nil
}

// checkWindow verifies one subscription emission: its last frame must be
// the maximum of the windowFrame+1 rows ending at lastRow.
func (o *milanOracle) checkWindow(firstRow, lastRow int, t *sudaf.Table) error {
	if lastRow >= len(o.x) || t.NumRows() != lastRow-firstRow+1 {
		return fmt.Errorf("window emission rows [%d,%d] has %d frames over a %d-row table", firstRow, lastRow, t.NumRows(), len(o.x))
	}
	lo := lastRow - windowFrame
	if lo < 0 {
		lo = 0
	}
	want := math.Inf(-1)
	for _, v := range o.x[lo : lastRow+1] {
		want = math.Max(want, v)
	}
	if got := t.Cols[0].AsFloat(t.NumRows() - 1); got != want {
		return fmt.Errorf("window frame ending at row %d: got %g, want %g", lastRow, got, want)
	}
	return nil
}

// encOracle is the reference for enc_data.qty.
type encOracle struct{ a acc }

func newEncOracle(t *sudaf.Table) *encOracle {
	o := &encOracle{a: newAcc()}
	for _, v := range t.Col("qty").I {
		o.a.add(float64(v))
	}
	return o
}

func (o *encOracle) check(q qspec, rows []outRow) error {
	if len(rows) != 1 || len(rows[0].vals) != 1 {
		return fmt.Errorf("%s enc: result shape %d rows", q.agg, len(rows))
	}
	want, err := o.a.value(q.agg)
	if err != nil {
		return err
	}
	if !closeEnough(rows[0].vals[0], want) {
		return fmt.Errorf("%s enc: got %.17g, want %.17g", q.agg, rows[0].vals[0], want)
	}
	return nil
}

// joinOracle is the reference for the five-way join: per item, one
// accumulator for each of the four measures, over the fact rows that
// survive the dimension predicates.
type joinOracle struct {
	items []int64 // item sks with at least one surviving row, ascending
	accs  map[int64]*[4]acc
}

func newJoinOracle(tables []*sudaf.Table) *joinOracle {
	by := map[string]*sudaf.Table{}
	for _, t := range tables {
		by[t.Name] = t
	}
	cd, dd, pr, ss := by["customer_demographics"], by["date_dim"], by["promotion"], by["store_sales"]
	// Dimension keys are dense row indexes in the generator.
	cdOK := make([]bool, cd.NumRows())
	for i := range cdOK {
		cdOK[i] = cd.Col("cd_gender").StringAt(i) == "M" && cd.Col("cd_marital_status").StringAt(i) == "S" &&
			cd.Col("cd_education_status").StringAt(i) == "College"
	}
	ddOK := make([]bool, dd.NumRows())
	for i := range ddOK {
		ddOK[i] = dd.Col("d_year").I[i] == 2000
	}
	prOK := make([]bool, pr.NumRows())
	for i := range prOK {
		prOK[i] = pr.Col("p_channel_email").StringAt(i) == "N" || pr.Col("p_channel_event").StringAt(i) == "N"
	}
	o := &joinOracle{accs: map[int64]*[4]acc{}}
	measures := [4][]float64{ss.Col("ss_quantity").F, ss.Col("ss_list_price").F,
		ss.Col("ss_coupon_amt").F, ss.Col("ss_sales_price").F}
	item, date, cdemo, promo := ss.Col("ss_item_sk").I, ss.Col("ss_sold_date_sk").I, ss.Col("ss_cdemo_sk").I, ss.Col("ss_promo_sk").I
	for i := range item {
		if !cdOK[cdemo[i]] || !ddOK[date[i]] || !prOK[promo[i]] {
			continue
		}
		a := o.accs[item[i]]
		if a == nil {
			a = &[4]acc{newAcc(), newAcc(), newAcc(), newAcc()}
			o.accs[item[i]] = a
			o.items = append(o.items, item[i])
		}
		for m := range measures {
			a[m].add(measures[m][i])
		}
	}
	sort.Slice(o.items, func(i, j int) bool { return o.items[i] < o.items[j] })
	return o
}

func (o *joinOracle) check(q qspec, rows []outRow) error {
	want := o.items
	if len(want) > 100 {
		want = want[:100]
	}
	if len(rows) != len(want) {
		return fmt.Errorf("%s join: %d rows, want %d", q.agg, len(rows), len(want))
	}
	for i, k := range want {
		if rows[i].key != k || len(rows[i].vals) != 4 {
			return fmt.Errorf("%s join: row %d has key %d, want %d", q.agg, i, rows[i].key, k)
		}
		for m := 0; m < 4; m++ {
			w, err := o.accs[k][m].value(q.agg)
			if err != nil {
				return err
			}
			if !closeEnough(rows[i].vals[m], w) {
				return fmt.Errorf("%s join item %d agg%d: got %.17g, want %.17g", q.agg, k, m+1, rows[i].vals[m], w)
			}
		}
	}
	return nil
}
