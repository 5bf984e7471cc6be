package exec

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"sudaf/internal/catalog"
	"sudaf/internal/sqlparse"
)

// DataKey is the one description of a data part (the paper's data
// dimension, Definition 3.1): which table versions a cached state was
// computed over, how they are joined and filtered, how the rows are
// grouped, and — for a windowed statement — the frame. Equal keys mean
// cached aggregation states are directly reusable. Cache entries, views,
// maintenance records, EXPLAIN and the append path all read this value;
// String is its only rendering.
//
// A key holds names, epochs and predicate ASTs only, never a table or a
// column: a cache entry for a superseded version must not pin the version.
type DataKey struct {
	// Tables are the base table versions, in name order.
	Tables []TableVersion
	// Joins are the equi-join pairs, each normalized so L renders before R,
	// in rendered order.
	Joins []JoinPair
	// Filters are the pushed-down conjuncts, ordered by table name, then
	// by text.
	Filters []Filter
	// GroupBy are the grouping column names in statement order.
	GroupBy []string
	// Frame is the OVER clause of a windowed statement ("" otherwise).
	Frame string

	text string
}

// TableVersion is one base table at one version.
type TableVersion struct {
	Name  string
	Epoch int64
}

// ColumnRef is a table-qualified column.
type ColumnRef struct {
	Table, Column string
}

// JoinPair is an equi-join between two table columns.
type JoinPair struct {
	L, R ColumnRef
}

// Filter is one pushed-down conjunct of a table's filter: its AST and its
// normalized text.
type Filter struct {
	Table string
	Pred  sqlparse.Pred
	Text  string
}

func (t TableVersion) String() string { return t.Name + "@" + strconv.FormatInt(t.Epoch, 10) }

func (c ColumnRef) String() string { return c.Table + "." + c.Column }

func (j JoinPair) String() string { return j.L.String() + "=" + j.R.String() }

// String renders the key: sorted table versions (name@epoch), sorted
// joins, sorted table:conjunct filters, group-by columns in order, and the
// frame suffix of a windowed key. Rendered once, when the key is built.
func (k *DataKey) String() string { return k.text }

// newDataKey orders a plan's resolved parts into a key and renders it.
// Joins sort by their rendered text. So do tables and filters inside the
// text, where that differs from the name order their fields keep when
// one name prefixes another ("t2@6" < "t@5").
func newDataKey(tables []TableVersion, joins []JoinPair, filters []Filter, groupBy []string) DataKey {
	slices.SortFunc(tables, func(a, b TableVersion) int { return strings.Compare(a.Name, b.Name) })
	for i, j := range joins {
		if j.L.String() > j.R.String() {
			joins[i].L, joins[i].R = j.R, j.L
		}
	}
	slices.SortFunc(joins, func(a, b JoinPair) int { return strings.Compare(a.String(), b.String()) })
	slices.SortFunc(filters, func(a, b Filter) int {
		if c := strings.Compare(a.Table, b.Table); c != 0 {
			return c
		}
		return strings.Compare(a.Text, b.Text)
	})

	joinText := make([]string, len(joins))
	for i, j := range joins {
		joinText[i] = j.String()
	}
	tableText := make([]string, len(tables))
	for i, t := range tables {
		tableText[i] = t.String()
	}
	sort.Strings(tableText)
	filterText := make([]string, len(filters))
	for i, f := range filters {
		filterText[i] = f.Table + ":" + f.Text
	}
	sort.Strings(filterText)
	text := "T[" + strings.Join(tableText, ",") + "]J[" + strings.Join(joinText, ",") +
		"]F[" + strings.Join(filterText, ";") + "]G[" + strings.Join(groupBy, ",") + "]"
	return DataKey{Tables: tables, Joins: joins, Filters: filters, GroupBy: groupBy, text: text}
}

// Framed returns the key qualified by a window frame: two windowed
// statements exchange per-emission states only when both their data part
// and their frame shape agree.
func (k *DataKey) Framed(frame string) *DataKey {
	fk := *k
	fk.Frame = frame
	fk.text = k.text + "|W[" + frame + "]"
	return &fk
}

// Reads reports whether the key reads table name at version epoch.
func (k *DataKey) Reads(name string, epoch int64) bool {
	for _, t := range k.Tables {
		if t.Name == name && t.Epoch == epoch {
			return true
		}
	}
	return false
}

// Current reports whether cat resolves every table of the key at exactly
// the version the key read.
func (k *DataKey) Current(cat *catalog.Catalog) bool {
	for _, tv := range k.Tables {
		t, err := cat.Table(tv.Name)
		if err != nil || t.Epoch != tv.Epoch {
			return false
		}
	}
	return true
}
