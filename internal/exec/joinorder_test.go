package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/expr"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// Differential test of the join order (DESIGN.md §8): buildRowSet probes
// the most selective build first, which must not change the joined tuple
// sequence the WHERE-order plan produces, so neither group order nor any
// answer bit may move. The reference here is a nested loop over that
// plan: fact rows in order, each expanded through the joins in plan
// order, every build's matches in build-row order.

// joinDim is one dimension of a random schema: its key column's values,
// which rows its filter keeps, and the table whose key column (named
// <parent>_to_<name>) joins it.
type joinDim struct {
	name, parent string
	pk           []int64
	keep         []bool
	dup          bool
}

// orderSchema is a random star or snowflake schema over a fact table f
// and the WHERE clause that joins and filters it.
type orderSchema struct {
	cat    *catalog.Catalog
	tables map[string]*storage.Table
	dims   []joinDim
	conds  [][4]string // probe table, probe column, build table, build column, in WHERE order
	where  string
}

// orderSpecials are the measure values whose bits a reordered fold or a
// misattached row would show: NaN payloads (one signaling), ±0, ±Inf and
// subnormals.
var orderSpecials = []float64{
	math.Float64frombits(0x7ff8_0000_0000_0bad), math.Float64frombits(0xfff4_0000_0000_0001),
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 5e-324, -2.5e-310,
}

func newOrderSchema(t *testing.T, rng *rand.Rand) *orderSchema {
	t.Helper()
	s := &orderSchema{tables: map[string]*storage.Table{}}
	nd := 2 + rng.Intn(4)
	for i := 0; i < nd; i++ {
		d := joinDim{name: fmt.Sprintf("d%d", i), parent: "f", dup: i < 2 || rng.Intn(3) == 0}
		if i > 0 && rng.Intn(3) == 0 {
			d.parent = fmt.Sprintf("d%d", rng.Intn(i)) // snowflake arm
		}
		// The filter keeps about cut % of the rows. A duplicate-key build
		// holds about 1.5 rows per key and keeps at most 75 % of them, so
		// the joined rows stay near the fact table's count.
		n := 20 + rng.Intn(300)
		cut := []int{3, 15, 40, 75, 100}[rng.Intn(5)]
		if d.dup {
			cut = []int{3, 15, 40, 75}[rng.Intn(4)]
		}
		for r := 0; r < n; r++ {
			k := int64(r)
			if d.dup {
				k = int64(rng.Intn(2*n/3 + 1))
			}
			d.pk = append(d.pk, k+100)
			d.keep = append(d.keep, rng.Intn(100) < cut)
		}
		s.dims = append(s.dims, d)
	}
	// Each table gets a foreign-key column per child, its keys ranging a
	// little past the child's so that some probes miss.
	build := func(name string, rows int, cols ...*storage.Column) *storage.Table {
		var kids []joinDim
		for _, d := range s.dims {
			if d.parent == name {
				kids = append(kids, d)
				cols = append(cols, storage.NewColumn(name+"_to_"+d.name, storage.KindInt))
			}
		}
		tbl := storage.NewTable(name, cols...)
		for r := 0; r < rows; r++ {
			for _, d := range kids {
				n := len(d.pk)
				tbl.Col(name + "_to_" + d.name).AppendInt(100 + int64(rng.Intn(n+n/8+1)))
			}
		}
		return tbl
	}
	nf := 16_000 + rng.Intn(16_000)
	fact := build("f", nf, storage.NewColumn("f_x", storage.KindFloat), storage.NewColumn("f_g", storage.KindInt))
	for r := 0; r < nf; r++ {
		x := rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20))
		if rng.Intn(64) == 0 {
			x = orderSpecials[rng.Intn(len(orderSpecials))]
		}
		fact.Col("f_x").AppendFloat(x)
		fact.Col("f_g").AppendInt(int64(rng.Intn(40)))
	}
	s.tables["f"] = fact
	for _, d := range s.dims {
		tbl := build(d.name, len(d.pk),
			storage.NewColumn(d.name+"_pk", storage.KindInt),
			storage.NewColumn(d.name+"_v", storage.KindInt),
			storage.NewColumn(d.name+"_w", storage.KindFloat),
			storage.NewColumn(d.name+"_g", storage.KindInt))
		for r, k := range d.pk {
			tbl.Col(d.name + "_pk").AppendInt(k)
			v := int64(1)
			if d.keep[r] {
				v = 0
			}
			tbl.Col(d.name + "_v").AppendInt(v)
			tbl.Col(d.name + "_w").AppendFloat(float64(r) + 0.1)
			tbl.Col(d.name + "_g").AppendInt(int64(rng.Intn(12)))
		}
		s.tables[d.name] = tbl
	}
	s.cat = catalog.New()
	for _, tbl := range s.tables {
		if err := s.cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	// The WHERE clause lists the join conditions in random order, so a
	// snowflake arm's condition may come before its parent is joined,
	// then one filter per dimension.
	var conj []string
	for _, i := range rng.Perm(len(s.dims)) {
		d := s.dims[i]
		c := [4]string{d.parent, d.parent + "_to_" + d.name, d.name, d.name + "_pk"}
		s.conds = append(s.conds, c)
		if rng.Intn(2) == 0 {
			conj = append(conj, c[1]+" = "+c[3])
		} else {
			conj = append(conj, c[3]+" = "+c[1])
		}
	}
	for _, d := range s.dims {
		conj = append(conj, d.name+"_v = 0")
	}
	s.where = strings.Join(conj, " and ")
	return s
}

// kept is the fraction of a dimension's rows its filter keeps.
func (d joinDim) kept() float64 {
	n := 0
	for _, k := range d.keep {
		if k {
			n++
		}
	}
	return float64(n) / float64(len(d.keep))
}

// planSteps is the WHERE-order plan from f: until every table has joined,
// the first condition connecting a joined table to a new one.
func (s *orderSchema) planSteps() [][4]string {
	joined := map[string]bool{"f": true}
	var steps [][4]string
	for len(steps) < len(s.conds) {
		for _, c := range s.conds {
			if joined[c[0]] && !joined[c[2]] {
				steps = append(steps, c)
				joined[c[2]] = true
				break
			}
		}
	}
	return steps
}

// tuples is the reference join: one row per table name per tuple, fact
// rows in order, each expanded through the plan's steps, a build's
// matches in build-row order.
func (s *orderSchema) tuples() []map[string]int32 {
	steps := s.planSteps()
	dims := map[string]joinDim{}
	for _, d := range s.dims {
		dims[d.name] = d
	}
	var out []map[string]int32
	var expand func(tup map[string]int32, step int)
	expand = func(tup map[string]int32, step int) {
		if step == len(steps) {
			cp := make(map[string]int32, len(tup))
			for k, v := range tup {
				cp[k] = v
			}
			out = append(out, cp)
			return
		}
		c := steps[step]
		key := s.tables[c[0]].Col(c[1]).I[tup[c[0]]]
		d := dims[c[2]]
		for r, k := range d.pk {
			if k == key && d.keep[r] {
				tup[c[2]] = int32(r)
				expand(tup, step+1)
			}
		}
		delete(tup, c[2])
	}
	for r := 0; r < s.tables["f"].NumRows(); r++ {
		expand(map[string]int32{"f": int32(r)}, 0)
	}
	return out
}

// referenceGroups folds the states over the reference tuples the way one
// morsel does: groups numbered at first appearance, each state folded
// from its identity in tuple order, then ⊕-merged into the identity.
func referenceGroups(tuples []map[string]int32, key *storage.Column, keyTable string,
	states []canonical.State, cols []*storage.Column, colTables []string) ([]GroupKey, [][]float64) {
	index := map[int64]int{}
	var keys []GroupKey
	vals := make([][]float64, len(states))
	for _, tup := range tuples {
		k := key.I[tup[keyTable]]
		g, ok := index[k]
		if !ok {
			g = len(keys)
			index[k] = g
			keys = append(keys, GroupKey{k, 0})
			for s, st := range states {
				vals[s] = append(vals[s], st.MergeIdentity())
			}
		}
		for s, st := range states {
			a := &vals[s][g]
			if st.Op == canonical.OpCount {
				*a++
				continue
			}
			v := cols[s].F[tup[colTables[s]]]
			switch st.Op {
			case canonical.OpSum:
				*a += v
			case canonical.OpMin:
				if v < *a || v != v {
					*a = v
				}
			case canonical.OpMax:
				if v > *a || v != v {
					*a = v
				}
			}
		}
	}
	for s, st := range states {
		for g := range vals[s] {
			vals[s][g] = st.Merge(st.MergeIdentity(), vals[s][g])
		}
	}
	return keys, vals
}

func TestConcurrentJoinOrderMatchesTupleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 24
	if testing.Short() {
		trials = 6
	}
	inverted := false
	for trial := 0; trial < trials; trial++ {
		s := newOrderSchema(t, rng)
		ref := s.tuples()
		if len(ref) >= MorselRows {
			t.Fatalf("trial %d: %d joined rows; the reference folds one morsel", trial, len(ref))
		}
		// Is there a pair of duplicate-key builds that selectivity alone
		// would swap? Then moving either would reorder the tuples.
		var dupKept []float64
		for _, c := range s.planSteps() {
			for _, d := range s.dims {
				if d.name == c[2] && d.dup {
					dupKept = append(dupKept, d.kept())
				}
			}
		}
		for i := 1; i < len(dupKept); i++ {
			inverted = inverted || dupKept[i] < dupKept[i-1]
		}

		groupBy := "f_g"
		keyTable := "f"
		if trial%2 == 1 {
			d := s.dims[rng.Intn(len(s.dims))]
			groupBy, keyTable = d.name+"_g", d.name
		}
		wd := s.dims[rng.Intn(len(s.dims))]
		states := []canonical.State{
			{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
			{Op: canonical.OpSum, Base: expr.MustParse("f_x")},
			{Op: canonical.OpMin, Base: expr.MustParse("f_x")},
			{Op: canonical.OpMax, Base: expr.MustParse("f_x")},
			{Op: canonical.OpSum, Base: expr.MustParse(wd.name + "_w")},
		}
		fx, w := s.tables["f"].Col("f_x"), s.tables[wd.name].Col(wd.name+"_w")
		wantKeys, wantVals := referenceGroups(ref, s.tables[keyTable].Col(groupBy), keyTable, states,
			[]*storage.Column{nil, fx, fx, fx, w}, []string{"", "f", "f", "f", wd.name})

		from := []string{"f"}
		for _, d := range s.dims {
			from = append(from, d.name)
		}
		sql := fmt.Sprintf("SELECT %s, count(*) FROM %s WHERE %s GROUP BY %s", groupBy, strings.Join(from, ", "), s.where, groupBy)
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("trial %d workers=%d %s", trial, workers, sql)
			e := NewEngine(s.cat, workers)
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := e.PrepareData(stmt)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := dp.buildRowSet(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if rs.n != len(ref) {
				t.Fatalf("%s: %d joined rows, want %d", label, rs.n, len(ref))
			}
			for name := range s.tables {
				vec := rs.vecs[name]
				for i, tup := range ref {
					if got := physRow(vec, i); got != tup[name] {
						t.Fatalf("%s: joined row %d has %s row %d, want %d (probe order %v)", label, i, name, got, tup[name], rs.joins)
					}
				}
			}
			got := runStates(t, e, sql, states)
			if got.NumGroups != len(wantKeys) {
				t.Fatalf("%s: %d groups, want %d", label, got.NumGroups, len(wantKeys))
			}
			for g, k := range wantKeys {
				if got.Keys[g] != k {
					t.Fatalf("%s: group %d key %v, want %v", label, g, got.Keys[g], k)
				}
				for v := range states {
					if h, w := got.Values[v][g], wantVals[v][g]; math.Float64bits(h) != math.Float64bits(w) {
						t.Fatalf("%s: state %s group %d: %#x, want %#x", label, states[v].Key(), g, math.Float64bits(h), math.Float64bits(w))
					}
				}
			}
		}
	}
	if !inverted {
		t.Fatal("no trial put two duplicate-key builds out of selectivity order; the test cannot see them reordered")
	}
}
