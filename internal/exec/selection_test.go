package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// The oracle below evaluates a filter one row at a time in plain Go over
// the values the test table was built from, sharing nothing with the
// block compiler: numbers compare as float64 (an int column's value is
// converted first, as `float64(x) op v`), strings by value and only with
// = and !=. Every other operand pairing is an error.

// oracleRows are the test table's values, row by row.
type oracleRows struct {
	i, j []int64
	f, g []float64
	s, u []string
}

// oracleVal is one operand's value at a row: a number or a string.
type oracleVal struct {
	num   float64
	str   string
	isStr bool
}

func (o *oracleRows) operand(op sqlparse.Operand, row int) (oracleVal, bool) {
	if !op.IsCol {
		if op.IsNum {
			return oracleVal{num: op.Num}, true
		}
		return oracleVal{str: op.Str, isStr: true}, true
	}
	switch op.Col {
	case "i":
		return oracleVal{num: float64(o.i[row])}, true
	case "j":
		return oracleVal{num: float64(o.j[row])}, true
	case "f":
		return oracleVal{num: o.f[row]}, true
	case "g":
		return oracleVal{num: o.g[row]}, true
	case "s":
		return oracleVal{str: o.s[row], isStr: true}, true
	case "u":
		return oracleVal{str: o.u[row], isStr: true}, true
	}
	return oracleVal{}, false
}

// eval reports whether row satisfies p; ok is false when p is invalid.
func (o *oracleRows) eval(p sqlparse.Pred, row int) (sel, ok bool) {
	switch p := p.(type) {
	case *sqlparse.And:
		l, lok := o.eval(p.L, row)
		r, rok := o.eval(p.R, row)
		return l && r, lok && rok
	case *sqlparse.Or:
		l, lok := o.eval(p.L, row)
		r, rok := o.eval(p.R, row)
		return l || r, lok && rok
	case *sqlparse.Cmp:
		if !p.L.IsCol && !p.R.IsCol {
			return false, false
		}
		l, lok := o.operand(p.L, row)
		r, rok := o.operand(p.R, row)
		if !lok || !rok || l.isStr != r.isStr {
			return false, false
		}
		if l.isStr {
			switch p.Op {
			case "=":
				return l.str == r.str, true
			case "!=":
				return l.str != r.str, true
			}
			return false, false
		}
		switch p.Op {
		case "=":
			return l.num == r.num, true
		case "!=":
			return l.num != r.num, true
		case "<":
			return l.num < r.num, true
		case "<=":
			return l.num <= r.num, true
		case ">":
			return l.num > r.num, true
		case ">=":
			return l.num >= r.num, true
		}
	}
	return false, false
}

// selectionTable builds an n-row table t(i, j int; f, g float; s, u
// string) whose values cycle through the boundary cases before filling
// with random ones, plus the oracle's copy of them.
func selectionTable(n int, rng *rand.Rand) (*storage.Table, *oracleRows) {
	const p53 = int64(1) << 53
	intEdges := []int64{
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 512, math.MinInt64 + 513,
		math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 512, math.MaxInt64 - 513,
		-p53 - 3, -p53 - 2, -p53 - 1, -p53, -p53 + 1, p53 - 1, p53, p53 + 1, p53 + 2, p53 + 3,
		-2, -1, 0, 1, 2, 3, 4, 5, 9, 10, 11,
	}
	floatEdges := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.5, -0.5, 1, -1,
		2.5, 3, 9.75, 10, 1 << 53, 1<<53 + 2, -(1 << 53), 1e300, -1e300, 5e-324, -5e-324,
		math.MaxFloat64, -math.MaxFloat64, 9.223372036854776e18, -9.223372036854776e18,
	}
	sWords := []string{"p", "q", "r", "z", "N", "Y"}
	uWords := []string{"q", "w", "p", "N", "zz"}
	o := &oracleRows{
		i: make([]int64, n), j: make([]int64, n),
		f: make([]float64, n), g: make([]float64, n),
		s: make([]string, n), u: make([]string, n),
	}
	for r := 0; r < n; r++ {
		pickInt := func(shift int) int64 {
			if k := r + shift; k < 4*len(intEdges) && k%4 < 3 {
				return intEdges[(k/4+k%4)%len(intEdges)]
			}
			if rng.Intn(4) == 0 {
				return rng.Int63() - rng.Int63()
			}
			return int64(rng.Intn(24) - 6)
		}
		pickFloat := func(shift int) float64 {
			if k := r + shift; k < 4*len(floatEdges) && k%4 < 3 {
				return floatEdges[(k/4+k%4)%len(floatEdges)]
			}
			return float64(rng.Intn(48)-12) / 4
		}
		o.i[r], o.j[r] = pickInt(0), pickInt(5)
		o.f[r], o.g[r] = pickFloat(0), pickFloat(7)
		o.s[r], o.u[r] = sWords[rng.Intn(len(sWords))], uWords[rng.Intn(len(uWords))]
	}
	return o.table(0, n), o
}

// table builds the table t holding rows [lo, hi) of o.
func (o *oracleRows) table(lo, hi int) *storage.Table {
	var cols []*storage.Column
	for name, vals := range map[string][]int64{"i": o.i, "j": o.j} {
		c := storage.NewColumn(name, storage.KindInt)
		for _, v := range vals[lo:hi] {
			c.AppendInt(v)
		}
		cols = append(cols, c)
	}
	for name, vals := range map[string][]float64{"f": o.f, "g": o.g} {
		c := storage.NewColumn(name, storage.KindFloat)
		for _, v := range vals[lo:hi] {
			c.AppendFloat(v)
		}
		cols = append(cols, c)
	}
	for name, vals := range map[string][]string{"s": o.s, "u": o.u} {
		c := storage.NewColumn(name, storage.KindString)
		for _, v := range vals[lo:hi] {
			c.AppendString(v)
		}
		cols = append(cols, c)
	}
	return storage.NewTable("t", cols...)
}

// grownTable builds o's table as its rows up to cuts[0], sealed, grown
// by AppendRows with the rows between consecutive cuts and then the rest:
// one segment per part, and string codes interned across appends.
func (o *oracleRows) grownTable(t testing.TB, cuts ...int) *storage.Table {
	t.Helper()
	tbl := o.table(0, cuts[0])
	tbl.Seal()
	for k, lo := range cuts {
		hi := len(o.i)
		if k+1 < len(cuts) {
			hi = cuts[k+1]
		}
		next, err := tbl.AppendRows(o.table(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		tbl = next
	}
	return tbl
}

// phasedTable builds a table of the oracle's schema whose rows come in
// cancelCheckRows-sized phases of different hit rates, so a span leaf's
// kernel switches from sparse to dense and back. A hit row has i in
// [0, 10), f = i + 0.25, s = "h" and u = "h"; the other rows have i in
// [100, 150), f = i + 0.25 or NaN, and s, u among "m0".."m3". Hits are
// also planted on the last row of every group of four in the sparse
// phases, and on the table's last three rows.
func phasedTable(rng *rand.Rand) (*storage.Table, *oracleRows) {
	phases := []float64{0.002, 0.5, 0.002, 1, 0, 0.002, 0.99, 0.02, 0.002}
	n := len(phases)*cancelCheckRows + 77
	o := &oracleRows{
		i: make([]int64, n), j: make([]int64, n),
		f: make([]float64, n), g: make([]float64, n),
		s: make([]string, n), u: make([]string, n),
	}
	for r := 0; r < n; r++ {
		rate := phases[min(r/cancelCheckRows, len(phases)-1)]
		hit := rng.Float64() < rate || rate < 0.01 && r%4 == 3 && rng.Intn(256) == 0 || r >= n-3
		if hit {
			o.i[r] = int64(rng.Intn(10))
			o.s[r], o.u[r] = "h", "h"
		} else {
			o.i[r] = int64(100 + rng.Intn(50))
			o.s[r], o.u[r] = fmt.Sprintf("m%d", rng.Intn(4)), fmt.Sprintf("m%d", rng.Intn(4))
		}
		o.f[r] = float64(o.i[r]) + 0.25
		if !hit && rng.Intn(64) == 0 {
			o.f[r] = math.NaN()
		}
		o.j[r] = int64(rng.Intn(160))
		o.g[r] = float64(rng.Intn(40)) - 20
	}
	return o.table(0, n), o
}

// checkSelection runs selection on p and compares it with the oracle:
// the same error-or-not, and the same ascending rows.
func checkSelection(t *testing.T, tbl *storage.Table, o *oracleRows, p sqlparse.Pred) {
	t.Helper()
	n := tbl.NumRows()
	var want []int32
	valid := true
	for r := 0; r < n; r++ {
		sel, ok := o.eval(p, r)
		if !ok {
			valid = false
			break
		}
		if sel {
			want = append(want, int32(r))
		}
	}
	got, err := selection(context.Background(), tbl, p)
	if n == 0 {
		// The oracle sees no row to find an invalid operand on.
		if err == nil && got.n != 0 {
			t.Fatalf("%s on an empty table: %d rows", sqlparse.PredString(p), got.n)
		}
		return
	}
	if !valid {
		if err == nil {
			t.Fatalf("%s: want an error, got %d rows", sqlparse.PredString(p), got.n)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", sqlparse.PredString(p), err)
	}
	if got.n != len(want) || len(got.rows) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", sqlparse.PredString(p), got.n, len(want))
	}
	for k := range want {
		if got.rows[k] != want[k] {
			t.Fatalf("%s: row %d is %d, oracle %d", sqlparse.PredString(p), k, got.rows[k], want[k])
		}
	}
}

var selectionOps = []string{"=", "!=", "<", "<=", ">", ">="}

// selectionLiterals are the boundary literals: around the int columns'
// values (±0.5), ±2^53±1, the float64 images of MinInt64/MaxInt64 and
// their neighbours, ±Inf, −0 and NaN.
func selectionLiterals() []float64 {
	lits := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -5e-324,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}
	for _, v := range []float64{0, 1, 2, 3, 10, -1, -6, 17} {
		lits = append(lits, v, v-0.5, v+0.5, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for _, v := range []float64{1 << 53, -(1 << 53), 9.223372036854776e18, -9.223372036854776e18} {
		lits = append(lits, v, v-1, v+1, v-2, v+2, v-0.5, v+0.5,
			math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	return lits
}

func cmpLit(col, op string, v float64, litLeft bool) *sqlparse.Cmp {
	c, l := sqlparse.Operand{Col: col, IsCol: true}, sqlparse.Operand{Num: v, IsNum: true}
	if litLeft {
		return &sqlparse.Cmp{Op: op, L: l, R: c}
	}
	return &sqlparse.Cmp{Op: op, L: c, R: l}
}

func cmpStr(col, op, s string, litLeft bool) *sqlparse.Cmp {
	c, l := sqlparse.Operand{Col: col, IsCol: true}, sqlparse.Operand{Str: s}
	if litLeft {
		return &sqlparse.Cmp{Op: op, L: l, R: c}
	}
	return &sqlparse.Cmp{Op: op, L: c, R: l}
}

func cmpCols(l, op, r string) *sqlparse.Cmp {
	return &sqlparse.Cmp{Op: op, L: sqlparse.Operand{Col: l, IsCol: true}, R: sqlparse.Operand{Col: r, IsCol: true}}
}

// randomLeaf draws a valid comparison over the test table.
func randomLeaf(rng *rand.Rand, lits []float64) sqlparse.Pred {
	op := selectionOps[rng.Intn(len(selectionOps))]
	switch rng.Intn(6) {
	case 0, 1:
		return cmpLit("i", op, lits[rng.Intn(len(lits))], rng.Intn(2) == 0)
	case 2:
		return cmpLit("f", op, lits[rng.Intn(len(lits))], rng.Intn(2) == 0)
	case 3:
		cols := []string{"i", "j", "f", "g"}
		return cmpCols(cols[rng.Intn(4)], op, cols[rng.Intn(4)])
	case 4:
		eq := []string{"=", "!="}[rng.Intn(2)]
		return cmpStr([]string{"s", "u"}[rng.Intn(2)], eq, []string{"p", "q", "N", "absent"}[rng.Intn(4)], rng.Intn(2) == 0)
	}
	eq := []string{"=", "!="}[rng.Intn(2)]
	return cmpCols([]string{"s", "u"}[rng.Intn(2)], eq, []string{"s", "u"}[rng.Intn(2)])
}

// randomPred nests And/Or over random leaves.
func randomPred(rng *rand.Rand, lits []float64, depth int) sqlparse.Pred {
	if depth == 0 || rng.Intn(3) == 0 {
		return randomLeaf(rng, lits)
	}
	l, r := randomPred(rng, lits, depth-1), randomPred(rng, lits, depth-1)
	if rng.Intn(2) == 0 {
		return &sqlparse.Or{L: l, R: r}
	}
	return &sqlparse.And{L: l, R: r}
}

func and(ps ...sqlparse.Pred) sqlparse.Pred {
	p := ps[0]
	for _, q := range ps[1:] {
		p = &sqlparse.And{L: p, R: q}
	}
	return p
}

// selectionCase is one table the oracle test runs, with the values it was
// built from.
type selectionCase struct {
	name string
	tbl  *storage.Table
	o    *oracleRows
}

// selectionCases are the oracle test's tables: the boundary-value table at
// sizes around the four-row group and the cancelCheckRows block, the
// largest of them grown by AppendRows into three segments, and the phased
// table whose blocks switch the span kernels.
func selectionCases(t testing.TB) []selectionCase {
	var cs []selectionCase
	for _, n := range []int{0, 1, 3, 4, 5, 117, cancelCheckRows - 1, cancelCheckRows, cancelCheckRows + 1,
		cancelCheckRows + 3, 2*cancelCheckRows + 1001} {
		tbl, o := selectionTable(n, rand.New(rand.NewSource(int64(n))))
		cs = append(cs, selectionCase{fmt.Sprintf("n=%d", n), tbl, o})
	}
	last := cs[len(cs)-1]
	grown := last.o.grownTable(t, 5000, cancelCheckRows+17)
	if len(grown.Segments) != 3 {
		t.Fatalf("grown table has segments %v, want 3", grown.Segments)
	}
	cs = append(cs, selectionCase{"grown", grown, last.o})
	tbl, o := phasedTable(rand.New(rand.NewSource(7)))
	return append(cs, selectionCase{"phased", tbl, o})
}

// shapePreds are the node shapes over the phased table's hit values: each
// span leaf and its complement, a conjunction generated from one span and
// refined by others, Or of Ands, And of Ors, an And refined through an Or,
// and column-against-column conjuncts after a span.
func shapePreds() []sqlparse.Pred {
	return []sqlparse.Pred{
		and(cmpLit("i", ">=", 0, false), cmpLit("i", "<", 10, false)),
		cmpLit("i", ">=", 10, false),
		cmpLit("i", "!=", 3, true),
		and(cmpLit("f", ">=", 0, false), cmpLit("f", "<", 10, false)),
		cmpLit("f", "!=", 3.25, false),
		cmpLit("f", ">", 10, false),
		cmpStr("s", "=", "h", false),
		cmpStr("s", "!=", "h", true),
		and(cmpLit("i", "<", 10, false), cmpStr("s", "=", "h", false), cmpLit("f", ">", 1, false)),
		and(cmpStr("u", "=", "h", false), cmpLit("i", "<", 10, false), cmpLit("i", "!=", 4, false)),
		&sqlparse.Or{L: and(cmpLit("i", "<", 10, false), cmpStr("u", "=", "h", false)),
			R: and(cmpLit("f", "<", 5, false), cmpLit("j", ">", 80, false))},
		&sqlparse.Or{L: cmpLit("i", "<", 3, false), R: &sqlparse.Or{L: cmpStr("s", "=", "m1", false), R: cmpLit("f", ">=", 148, false)}},
		and(&sqlparse.Or{L: cmpLit("i", "<", 5, false), R: cmpStr("s", "=", "m2", false)},
			&sqlparse.Or{L: cmpLit("f", ">=", 2, false), R: cmpLit("g", "<", 0, false)}),
		and(cmpLit("i", "<", 10, false), &sqlparse.Or{L: cmpLit("f", "<", 4, false), R: cmpCols("j", "<", "i")}),
		and(&sqlparse.Or{L: cmpLit("i", "<", 10, false), R: cmpLit("j", "<", 2, false)}, cmpStr("s", "!=", "m0", false),
			cmpCols("f", ">", "g")),
		and(cmpLit("i", "<", 10, false), cmpCols("i", "<", "j")),
		and(cmpLit("i", ">=", 100, false), cmpCols("s", "=", "u"), cmpCols("f", "<=", "g")),
		&sqlparse.Or{L: and(cmpLit("i", "<", 10, false), &sqlparse.Or{L: cmpCols("s", "=", "u"), R: cmpLit("g", ">", 0, false)}),
			R: and(cmpLit("j", "<", 8, false), cmpLit("j", ">", 8, false))},
	}
}

func TestSelectionMatchesRowOracle(t *testing.T) {
	lits := selectionLiterals()
	for _, sc := range selectionCases(t) {
		tbl, o, n := sc.tbl, sc.o, sc.tbl.NumRows()
		rng := rand.New(rand.NewSource(int64(n)))
		for _, p := range shapePreds() {
			checkSelection(t, tbl, o, p)
		}
		// The phased table holds no boundary values: it runs the shapes
		// and the random nesting alone.
		if sc.name == "phased" {
			for k := 0; k < 100; k++ {
				checkSelection(t, tbl, o, randomPred(rng, lits, 3))
			}
			continue
		}

		// Every op against every boundary literal, the literal on either
		// side, on the int and the float column. The boundary values sit
		// in the first rows, so the multi-block tables take every fifth.
		for _, col := range []string{"i", "f"} {
			for _, op := range selectionOps {
				for k, v := range lits {
					if n > cancelCheckRows && k%5 != 0 {
						continue
					}
					checkSelection(t, tbl, o, cmpLit(col, op, v, false))
					checkSelection(t, tbl, o, cmpLit(col, op, v, true))
				}
			}
		}
		// Column against column, every kind pairing (the string/number
		// ones and ordered strings are errors).
		for _, l := range []string{"i", "j", "f", "g", "s", "u"} {
			for _, r := range []string{"i", "j", "f", "g", "s", "u"} {
				for _, op := range selectionOps {
					checkSelection(t, tbl, o, cmpCols(l, op, r))
				}
			}
		}
		// String literals, and the invalid literal/column pairings.
		for _, op := range selectionOps {
			for _, s := range []string{"p", "q", "zz", "absent"} {
				checkSelection(t, tbl, o, cmpStr("s", op, s, false))
				checkSelection(t, tbl, o, cmpStr("u", op, s, true))
				checkSelection(t, tbl, o, cmpStr("i", op, s, false))
			}
			checkSelection(t, tbl, o, cmpLit("s", op, 1, false))
		}
		// Several conjuncts on one column: ranges, empty and disjoint ones,
		// equalities that cannot both hold, and a != inside a range.
		for _, col := range []string{"i", "f"} {
			for _, p := range []sqlparse.Pred{
				and(cmpLit(col, ">=", 2, false), cmpLit(col, "<", 10, false)),
				and(cmpLit(col, ">", 2.5, false), cmpLit(col, "<=", 9.5, false), cmpLit(col, ">=", 3, true)),
				and(cmpLit(col, ">=", 10, false), cmpLit(col, "<", 5, false)),
				and(cmpLit(col, ">", 3, false), cmpLit(col, "<", 3, false)),
				and(cmpLit(col, "=", 2, false), cmpLit(col, "=", 3, false)),
				and(cmpLit(col, "=", 3, false), cmpLit(col, "<=", 3, false), cmpLit(col, ">=", 3, false)),
				and(cmpLit(col, ">=", -6, false), cmpLit(col, "!=", 3, false), cmpLit(col, "<", 10, false)),
				and(cmpLit(col, ">", math.NaN(), false), cmpLit(col, "<", 10, false)),
				and(cmpLit(col, "<", 10, false), cmpLit(col, ">", math.NaN(), false)),
				and(cmpLit(col, ">", -(1<<53), false), cmpLit(col, "<=", 1<<53, false)),
				and(cmpLit(col, ">=", 9.223372036854776e18, false), cmpLit(col, "<=", math.Inf(1), false)),
				and(cmpLit(col, ">", 0, false), cmpCols("i", "<", "f"), cmpLit(col, "<", 10, false)),
				and(cmpStr("s", "=", "p", false), cmpStr("s", "=", "q", false)),
				and(cmpStr("s", "!=", "p", false), cmpStr("s", "!=", "q", false), cmpLit(col, ">", 0, false)),
				&sqlparse.Or{L: and(cmpLit(col, ">=", 0, false), cmpLit(col, "<", 2, false)),
					R: and(cmpLit(col, ">", 8, false), cmpLit(col, "<=", 11, false))},
			} {
				checkSelection(t, tbl, o, p)
			}
		}
		// Random And/Or nesting.
		for k := 0; k < 200; k++ {
			checkSelection(t, tbl, o, randomPred(rng, lits, 3))
		}
	}
}

// FuzzSelection fuzzes a comparison's literal, op and side, a second
// conjunct on the same column, and a node shape around the two, against
// the row oracle on the boundary-value table, the same table grown by
// AppendRows, and the phased table.
func FuzzSelection(f *testing.F) {
	f.Add(uint8(0), 3.0, false, uint8(0), -1.5, uint8(2), uint8(0))
	f.Add(uint8(2), math.Inf(1), true, uint8(1), math.NaN(), uint8(5), uint8(1))
	f.Add(uint8(5), 9007199254740993.0, false, uint8(0), -9.223372036854776e18, uint8(3), uint8(2))
	f.Add(uint8(3), math.Copysign(0, -1), true, uint8(1), 0.5, uint8(1), uint8(3))
	f.Add(uint8(2), 10.0, false, uint8(0), 0.0, uint8(5), uint8(1))
	f.Add(uint8(4), 149.25, true, uint8(1), 3.25, uint8(1), uint8(2))
	tbl, o := selectionTable(cancelCheckRows+77, rand.New(rand.NewSource(1)))
	grown := o.grownTable(f, 4099, cancelCheckRows+2)
	phased, po := phasedTable(rand.New(rand.NewSource(2)))
	f.Fuzz(func(t *testing.T, op uint8, v float64, litLeft bool, col uint8, w float64, op2 uint8, shape uint8) {
		c := []string{"i", "f"}[col%2]
		p := cmpLit(c, selectionOps[int(op)%len(selectionOps)], v, litLeft)
		q := cmpLit(c, selectionOps[int(op2)%len(selectionOps)], w, !litLeft)
		preds := []sqlparse.Pred{p, and(p, q)}
		switch shape % 4 {
		case 0:
			preds = append(preds, &sqlparse.Or{L: p, R: q})
		case 1:
			preds = append(preds, and(&sqlparse.Or{L: p, R: cmpStr("s", "=", "h", false)}, q))
		case 2:
			preds = append(preds, &sqlparse.Or{L: and(p, cmpCols("i", "<", "j")), R: and(q, cmpStr("u", "!=", "h", false))})
		case 3:
			preds = append(preds, and(p, cmpCols("f", "<=", "g"), q))
		}
		for _, pred := range preds {
			checkSelection(t, tbl, o, pred)
			checkSelection(t, grown, o, pred)
			checkSelection(t, phased, po, pred)
		}
	})
}

// TestSpanKernelSwitch pins the choice of kernel: after each block of the
// phased table, a span leaf runs the skip kernel next exactly when the
// block kept less than 1/sparseBelow of its rows, and its ids match the
// oracle's block by block.
func TestSpanKernelSwitch(t *testing.T) {
	tbl, o := phasedTable(rand.New(rand.NewSource(3)))
	n := tbl.NumRows()
	for _, p := range []sqlparse.Pred{
		and(cmpLit("i", ">=", 0, false), cmpLit("i", "<", 10, false)),
		and(cmpLit("f", ">=", 0, false), cmpLit("f", "<", 10, false)),
		cmpStr("s", "=", "h", false),
		cmpLit("i", ">=", 10, false),
	} {
		f, err := compileFilter(tbl, p, cancelCheckRows)
		if err != nil {
			t.Fatal(err)
		}
		sparseNext := func() bool {
			switch k := f.(type) {
			case *intRange[int64]:
				return k.sparse
			case *intRange[int32]:
				return k.sparse
			case *floatSpan:
				return k.sparse
			}
			t.Fatalf("%s compiled to %T, not a span leaf", sqlparse.PredString(p), f)
			return false
		}
		switches := 0
		for lo := 0; lo < n; lo += cancelCheckRows {
			hi := min(n, lo+cancelCheckRows)
			before := sparseNext()
			got := f.gen(make([]int32, 0, hi-lo), lo, hi)
			var want []int32
			for r := lo; r < hi; r++ {
				if sel, _ := o.eval(p, r); sel {
					want = append(want, int32(r))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, block at %d (sparse kernel %v): %d ids, oracle %d", sqlparse.PredString(p), lo, before, len(got), len(want))
			}
			if sparseNext() != (len(want)*sparseBelow < hi-lo) {
				t.Fatalf("%s, block at %d kept %d of %d rows: next kernel sparse=%v", sqlparse.PredString(p), lo, len(want), hi-lo, sparseNext())
			}
			if sparseNext() != before {
				switches++
			}
		}
		if switches < 4 {
			t.Fatalf("%s: the kernel switched %d times over the phases, want at least 4", sqlparse.PredString(p), switches)
		}
	}
}

// TestConjunctSpans pins the span algebra a conjunction compiles to:
// same-column bounds intersect (to an empty span when they contradict), a
// NaN literal and a bound beyond ±Inf select nothing (a NaN under != all),
// a != is kept apart as a complement, a string literal the column never
// holds is code −1, and the other conjuncts are left in order.
func TestConjunctSpans(t *testing.T) {
	tbl, _ := selectionTable(8, rand.New(rand.NewSource(1)))
	inf, nan := math.Inf(1), math.NaN()
	i, f, s := tbl.Col("i"), tbl.Col("f"), tbl.Col("s")
	orPred := &sqlparse.Or{L: cmpLit("i", "<", 0, false), R: cmpLit("i", ">", 9, false)}
	colsPred := cmpCols("i", "<", "j")
	for _, c := range []struct {
		name  string
		conjs []sqlparse.Pred
		spans []colSpan
		rest  []sqlparse.Pred
	}{
		{"range", []sqlparse.Pred{cmpLit("i", ">=", 2, false), cmpLit("i", "<", 10, false)},
			[]colSpan{{i, span{2, math.Nextafter(10, -inf), false}}}, nil},
		{"literal on the left", []sqlparse.Pred{cmpLit("f", "<", 2, true), cmpLit("f", ">=", 10, true)},
			[]colSpan{{f, span{math.Nextafter(2, inf), 10, false}}}, nil},
		{"contradictory", []sqlparse.Pred{cmpLit("i", ">=", 10, false), cmpLit("i", "<", 5, false)},
			[]colSpan{{i, span{10, math.Nextafter(5, -inf), false}}}, nil},
		{"NaN", []sqlparse.Pred{cmpLit("f", "<=", nan, false)}, []colSpan{{f, span{inf, -inf, false}}}, nil},
		{"NaN under !=", []sqlparse.Pred{cmpLit("f", "!=", nan, false)}, []colSpan{{f, span{inf, -inf, true}}}, nil},
		{"below -Inf", []sqlparse.Pred{cmpLit("i", "<", -inf, false)}, []colSpan{{i, span{inf, -inf, false}}}, nil},
		{"above +Inf", []sqlparse.Pred{cmpLit("f", ">", inf, false)}, []colSpan{{f, span{inf, -inf, false}}}, nil},
		{"!= kept apart", []sqlparse.Pred{cmpLit("i", ">=", 0, false), cmpLit("i", "!=", 3, false), cmpLit("i", "<=", 9, false)},
			[]colSpan{{i, span{0, 9, false}}, {i, span{3, 3, true}}}, nil},
		{"absent string", []sqlparse.Pred{cmpStr("s", "=", "absent", false)}, []colSpan{{s, span{-1, -1, false}}}, nil},
		{"rest in order", []sqlparse.Pred{colsPred, cmpLit("f", ">", 0, false), orPred},
			[]colSpan{{f, span{math.Nextafter(0, inf), inf, false}}}, []sqlparse.Pred{colsPred, orPred}},
	} {
		spans, rest, err := conjunctSpans(tbl, c.conjs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(spans, c.spans) {
			t.Errorf("%s: spans %v, want %v", c.name, spans, c.spans)
		}
		if !slices.Equal(rest, c.rest) {
			t.Errorf("%s: other conjuncts %v, want %v", c.name, rest, c.rest)
		}
	}
	// Empty spans stay empty on an int column: no int lies in them.
	for _, sp := range []span{{10, math.Nextafter(5, -inf), false}, {inf, -inf, false}} {
		if _, _, ok := intSpan(sp); ok {
			t.Errorf("intSpan(%v) is not empty", sp)
		}
	}
}
