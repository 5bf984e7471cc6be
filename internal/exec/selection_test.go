package exec

import (
	"context"
	"math"
	"math/rand"
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
	var cols []*storage.Column
	for name, vals := range map[string][]int64{"i": o.i, "j": o.j} {
		c := storage.NewColumn(name, storage.KindInt)
		for _, v := range vals {
			c.AppendInt(v)
		}
		cols = append(cols, c)
	}
	for name, vals := range map[string][]float64{"f": o.f, "g": o.g} {
		c := storage.NewColumn(name, storage.KindFloat)
		for _, v := range vals {
			c.AppendFloat(v)
		}
		cols = append(cols, c)
	}
	for name, vals := range map[string][]string{"s": o.s, "u": o.u} {
		c := storage.NewColumn(name, storage.KindString)
		for _, v := range vals {
			c.AppendString(v)
		}
		cols = append(cols, c)
	}
	return storage.NewTable("t", cols...), o
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

func TestSelectionMatchesRowOracle(t *testing.T) {
	lits := selectionLiterals()
	for _, n := range []int{0, 1, 117, cancelCheckRows - 1, cancelCheckRows + 3, 2*cancelCheckRows + 1001} {
		rng := rand.New(rand.NewSource(int64(n)))
		tbl, o := selectionTable(n, rng)

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

// FuzzSelection fuzzes a comparison's literal, op and side (and a second
// conjunct on the same column), against the row oracle.
func FuzzSelection(f *testing.F) {
	f.Add(uint8(0), 3.0, false, uint8(0), -1.5, uint8(2))
	f.Add(uint8(2), math.Inf(1), true, uint8(1), math.NaN(), uint8(5))
	f.Add(uint8(5), 9007199254740993.0, false, uint8(0), -9.223372036854776e18, uint8(3))
	f.Add(uint8(3), math.Copysign(0, -1), true, uint8(1), 0.5, uint8(1))
	tbl, o := selectionTable(cancelCheckRows+77, rand.New(rand.NewSource(1)))
	f.Fuzz(func(t *testing.T, op uint8, v float64, litLeft bool, col uint8, w float64, op2 uint8) {
		c := []string{"i", "f"}[col%2]
		p := cmpLit(c, selectionOps[int(op)%len(selectionOps)], v, litLeft)
		checkSelection(t, tbl, o, p)
		checkSelection(t, tbl, o, and(p, cmpLit(c, selectionOps[int(op2)%len(selectionOps)], w, !litLeft)))
	})
}
