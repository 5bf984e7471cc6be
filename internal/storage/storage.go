// Package storage implements the columnar in-memory table substrate for
// the SUDAF engine: typed columns (float64, int64, dictionary-encoded
// strings), row builders, selection vectors, and CSV import/export.
//
// Strings are dictionary-encoded at append time so that group-by keys and
// equality predicates operate on integer codes, which keeps the hash
// aggregation paths monomorphic and fast.
package storage

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a column type.
type Kind int

const (
	// KindFloat is a float64 measure column.
	KindFloat Kind = iota
	// KindInt is an int64 key or attribute column.
	KindInt
	// KindString is a dictionary-encoded string column.
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Column is a typed column vector. Exactly one of F, I, Codes is
// populated, per Kind.
//
// A column goes through two phases. During construction it is mutable:
// Append* grow it in place. Once its table is registered in a catalog it
// is sealed — rows [0, Len()) become immutable, in-place Append* panic,
// and further growth happens only through Table.AppendRows, which
// produces a *new* column version sharing the sealed prefix arrays.
// Readers holding the old version never observe the new rows (their
// slice headers pin the length), which is what makes appends safe under
// concurrent scans without any per-row locking.
type Column struct {
	Name string
	Kind Kind

	F     []float64
	I     []int64
	Codes []int32
	dict  []string
	index map[string]int32

	// sealed marks rows [0, Len()) immutable; in-place Append* panic.
	// Set when the owning table is registered (Table.Seal) and on every
	// version produced by AppendRows.
	sealed bool
	// ownsTail marks this version as the owner of its backing arrays'
	// spare capacity: AppendRows may extend the arrays in place past
	// Len(). Exactly one version in a chain owns the tail at a time —
	// appending transfers ownership to the child, so two sibling
	// versions can never write the same spare bytes. Views (Slice,
	// Renamed) never own a tail.
	ownsTail bool

	// Cached (min, max, hasNaN), invalidated whenever Len() changes
	// (statsLen is the length the stats were computed at). Guarded by
	// statsMu.
	statsMu          sync.Mutex
	statsOK          bool
	statsLen         int
	statMin, statMax float64
	statNaN          bool

	// encs are per-segment acceleration encodings over the dense arrays
	// (RLE runs, FOR bit-packing), built when the owning table seals a
	// segment. Immutable once built; views carry the subset fully inside
	// their window. See encoding.go.
	encs []EncSeg
}

// NewColumn creates an empty column.
func NewColumn(name string, kind Kind) *Column {
	c := &Column{Name: name, Kind: kind, ownsTail: true}
	if kind == KindString {
		c.index = map[string]int32{}
	}
	return c
}

// Len returns the number of values.
func (c *Column) Len() int {
	switch c.Kind {
	case KindFloat:
		return len(c.F)
	case KindInt:
		return len(c.I)
	default:
		return len(c.Codes)
	}
}

// mustMutable panics when the column is sealed: in-place appends after
// registration would race concurrent readers (and could corrupt sibling
// versions sharing the backing array). Sealed tables grow through
// Table.AppendRows instead.
func (c *Column) mustMutable() {
	if c.sealed {
		panic(fmt.Sprintf("storage: in-place append to sealed column %q; use Table.AppendRows", c.Name))
	}
}

// AppendFloat appends to a float column.
func (c *Column) AppendFloat(v float64) { c.mustMutable(); c.F = append(c.F, v) }

// AppendInt appends to an int column.
func (c *Column) AppendInt(v int64) { c.mustMutable(); c.I = append(c.I, v) }

// AppendString appends to a string column, interning through the dict.
func (c *Column) AppendString(s string) {
	c.mustMutable()
	code, ok := c.index[s]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, s)
		c.index[s] = code
	}
	c.Codes = append(c.Codes, code)
}

// Code returns the dictionary code for s, or -1 if s never appears.
func (c *Column) Code(s string) int32 {
	if code, ok := c.index[s]; ok {
		return code
	}
	return -1
}

// StringAt returns the decoded string at row i.
func (c *Column) StringAt(i int) string { return c.dict[c.Codes[i]] }

// DictString decodes a dictionary code directly.
func (c *Column) DictString(code int32) string { return c.dict[code] }

// DictSize returns the number of distinct strings.
func (c *Column) DictSize() int { return len(c.dict) }

// AsFloat returns the value at row i coerced to float64 (string columns
// return their code; callers should not aggregate over strings).
func (c *Column) AsFloat(i int) float64 {
	switch c.Kind {
	case KindFloat:
		return c.F[i]
	case KindInt:
		return float64(c.I[i])
	default:
		return float64(c.Codes[i])
	}
}

// AsInt returns the value at row i as an int64 (floats truncate; strings
// return the dictionary code).
func (c *Column) AsInt(i int) int64 {
	switch c.Kind {
	case KindFloat:
		return int64(c.F[i])
	case KindInt:
		return c.I[i]
	default:
		return int64(c.Codes[i])
	}
}

// ValueString renders the value at row i for output.
func (c *Column) ValueString(i int) string {
	switch c.Kind {
	case KindFloat:
		return formatFloat(c.F[i])
	case KindInt:
		return strconv.FormatInt(c.I[i], 10)
	default:
		return c.StringAt(i)
	}
}

// formatFloat renders a float64 for human display: integral values
// print without an exponent, negative zero keeps its sign (the integer
// fast path would print it as "0"), and everything else is rounded to
// six significant digits. Persistence paths that must round-trip every
// bit use formatFloatExact instead.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		if v == 0 && math.Signbit(v) {
			return "-0"
		}
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// formatFloatExact renders a float64 so that strconv.ParseFloat reads
// back the identical bit pattern: NaN and ±Inf spell the forms
// ParseFloat accepts, negative zero keeps its sign, and everything else
// uses the shortest round-trippable decimal form.
func formatFloatExact(v float64) string {
	if v != v {
		return "NaN"
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		if v == 0 && math.Signbit(v) {
			return "-0"
		}
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// csvString renders the value at row i for the CSV writer. Unlike the
// display form it is full-precision, so a WriteCSV/LoadCSV round trip
// reproduces every float bit-for-bit.
func (c *Column) csvString(i int) string {
	if c.Kind == KindFloat {
		return formatFloatExact(c.F[i])
	}
	return c.ValueString(i)
}

// GatherFloats writes the values of rows rows[lo:hi] into out[:hi-lo],
// coerced to float64 (string columns yield their dictionary codes). A nil
// rows is the identity: rows lo..hi of the column itself. The loop is
// monomorphic per kind — this is the chunk-gather primitive of the
// engine's batch kernels.
func (c *Column) GatherFloats(rows []int32, lo, hi int, out []float64) {
	if rows == nil {
		switch c.Kind {
		case KindFloat:
			copy(out, c.F[lo:hi])
		case KindInt:
			for i, v := range c.I[lo:hi] {
				out[i] = float64(v)
			}
		default:
			for i, v := range c.Codes[lo:hi] {
				out[i] = float64(v)
			}
		}
		return
	}
	switch c.Kind {
	case KindFloat:
		f := c.F
		for i := lo; i < hi; i++ {
			out[i-lo] = f[rows[i]]
		}
	case KindInt:
		v := c.I
		for i := lo; i < hi; i++ {
			out[i-lo] = float64(v[rows[i]])
		}
	default:
		codes := c.Codes
		for i := lo; i < hi; i++ {
			out[i-lo] = float64(codes[rows[i]])
		}
	}
}

// Slice returns a zero-copy view of rows [lo, hi): the view shares the
// underlying arrays (and dictionary) with the parent column. The view is
// sealed (appending panics) and its slice headers are capacity-capped, so
// it can never alias the growing tail of a live version — append-created
// successors write past hi, which the view's header cannot reach.
func (c *Column) Slice(lo, hi int) *Column {
	n := NewColumn(c.Name, c.Kind)
	n.sealed, n.ownsTail = true, false
	switch c.Kind {
	case KindFloat:
		n.F = c.F[lo:hi:hi]
	case KindInt:
		n.I = c.I[lo:hi:hi]
	default:
		n.Codes = c.Codes[lo:hi:hi]
		n.dict = c.dict[:len(c.dict):len(c.dict)]
		n.index = c.index
	}
	n.encs = sliceEncs(c.encs, lo, hi)
	return n
}

// Renamed returns a view of the column under a new name, sharing the
// underlying data. Like Slice, the view is sealed and capacity-capped:
// it exposes exactly the parent's current rows and can neither grow nor
// observe a successor version's tail.
func (c *Column) Renamed(name string) *Column {
	n := NewColumn(name, c.Kind)
	n.sealed, n.ownsTail = true, false
	n.F = c.F[:len(c.F):len(c.F)]
	n.I = c.I[:len(c.I):len(c.I)]
	n.Codes = c.Codes[:len(c.Codes):len(c.Codes)]
	n.dict = c.dict[:len(c.dict):len(c.dict)]
	if c.index != nil {
		n.index = c.index
	}
	n.encs = sliceEncs(c.encs, 0, c.Len())
	return n
}

// Stats returns the cached (min, max) of a numeric column. The cache is
// append-aware: it is recomputed whenever the column's length no longer
// matches the length it was computed at, so stats can never go stale
// across in-place appends (sealed versions are immutable, so for them the
// scan runs once). An empty or all-NaN numeric column reports
// (+Inf, -Inf); callers deriving integer domains or sign facts from
// stats must guard for that — use StatsFull when NaN presence matters
// (see exec.keyDomainOf and the engine's positivity check). String
// columns return (0, 0).
func (c *Column) Stats() (min, max float64) {
	min, max, _ = c.StatsFull()
	return min, max
}

// StatsFull returns the cached (min, max) plus whether the column holds
// any NaN value. NaN values are excluded from min/max (they compare
// false against everything), so an all-NaN column reports the same
// (+Inf, -Inf) sentinels as an empty one — hasNaN is how callers tell
// "no values" apart from "no ordered values".
func (c *Column) StatsFull() (min, max float64, hasNaN bool) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	n := c.Len()
	if c.statsOK && c.statsLen == n {
		return c.statMin, c.statMax, c.statNaN
	}
	c.statMin, c.statMax, c.statNaN = math.Inf(1), math.Inf(-1), false
	switch c.Kind {
	case KindFloat:
		for _, v := range c.F {
			if v != v {
				c.statNaN = true
				continue
			}
			if v < c.statMin {
				c.statMin = v
			}
			if v > c.statMax {
				c.statMax = v
			}
		}
	case KindInt:
		for _, v := range c.I {
			fv := float64(v)
			if fv < c.statMin {
				c.statMin = fv
			}
			if fv > c.statMax {
				c.statMax = fv
			}
		}
	default:
		c.statMin, c.statMax = 0, 0
	}
	c.statsOK, c.statsLen = true, n
	return c.statMin, c.statMax, c.statNaN
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name   string
	Cols   []*Column
	byName map[string]int
	// Epoch identifies this table *version*: 0 while the table is still
	// being built, stamped from the global counter when it is registered
	// in a catalog, and stamped afresh by AppendRows for every successor
	// version. Data fingerprints embed the epoch, so cached aggregation
	// states are keyed to exactly one version of the data.
	Epoch int64
	// Segments records the cumulative row count at each sealed append
	// boundary: Segments[0] is the initially loaded prefix, each later
	// entry the end of one AppendRows batch. A query snapshot pins one
	// table version and therefore one segment list; rows past the last
	// boundary belong to future versions and are invisible to it.
	Segments []int
	// sealOnce makes Seal write-once: concurrent registrations of the
	// same table version (query-snapshot pinning) must not race on the
	// sealed flags.
	sealOnce sync.Once
	// err is the first construction error (e.g. a duplicate column passed
	// to NewTable); surfaced by Err and Validate rather than panicking.
	err error
}

// NewTable creates a table with the given columns (which may be empty).
// A duplicate column name is recorded as a deferred error (see Err) and
// the duplicate is not added.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{Name: name, byName: map[string]int{}}
	for _, c := range cols {
		_ = t.AddColumn(c)
	}
	return t
}

// AddColumn registers a column. A duplicate name returns an error, leaves
// the table unchanged, and is also recorded as the table's deferred error
// so Validate (and catalog registration) reject the schema.
func (t *Table) AddColumn(c *Column) error {
	if _, dup := t.byName[c.Name]; dup {
		err := fmt.Errorf("table %s: duplicate column %s", t.Name, c.Name)
		if t.err == nil {
			t.err = err
		}
		return err
	}
	t.byName[c.Name] = len(t.Cols)
	t.Cols = append(t.Cols, c)
	return nil
}

// Err returns the first construction error recorded for the table.
func (t *Table) Err() error { return t.err }

// Col returns the named column, or nil.
func (t *Table) Col(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return t.Cols[i]
	}
	return nil
}

// HasColumn reports whether the table has the named column.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// NumRows returns the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// ColumnNames returns the column names in schema order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

// Slice returns a zero-copy view of rows [lo, hi) of every column. The
// view keeps the table's name and schema; see Column.Slice.
func (t *Table) Slice(lo, hi int) *Table {
	out := NewTable(t.Name)
	for _, c := range t.Cols {
		_ = out.AddColumn(c.Slice(lo, hi))
	}
	return out
}

// Partition splits the table's rows into n contiguous [lo, hi) ranges
// aligned to segment boundaries where possible: segments are assigned
// greedily in order so each range holds roughly NumRows()/n rows, and a
// segment larger than the per-range budget is split mid-segment rather
// than overfilling one range. Ranges cover [0, NumRows()) exactly, in
// order, and trailing ranges may be empty (lo == hi) when the table has
// fewer rows than n. n must be >= 1.
func (t *Table) Partition(n int) [][2]int {
	if n < 1 {
		n = 1
	}
	total := t.NumRows()
	// Cut points between segments (plus 0 and total) are the preferred
	// range boundaries: an append extends only the final segment, so
	// segment-aligned ranges keep earlier shards' row ranges stable.
	cuts := []int{0}
	for _, end := range t.Segments {
		if end > 0 && end <= total && end > cuts[len(cuts)-1] {
			cuts = append(cuts, end)
		}
	}
	if cuts[len(cuts)-1] != total {
		cuts = append(cuts, total)
	}
	out := make([][2]int, 0, n)
	lo := 0
	for i := 0; i < n; i++ {
		if i == n-1 {
			out = append(out, [2]int{lo, total})
			break
		}
		// Ideal end of this range if the remaining rows were split evenly
		// across the remaining ranges.
		ideal := lo + (total-lo)/(n-i)
		hi := ideal
		// Snap to the nearest segment cut if one is close enough that no
		// range ends up more than ~2x its even share.
		best, bestDist := -1, total+1
		for _, c := range cuts {
			if c < lo || c > total {
				continue
			}
			if d := abs(c - ideal); d < bestDist {
				best, bestDist = c, d
			}
		}
		share := (total - lo) / (n - i)
		if best >= lo && bestDist <= share/2 {
			hi = best
		}
		if hi < lo {
			hi = lo
		}
		if hi > total {
			hi = total
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// epochCounter hands out globally unique table-version numbers.
var epochCounter atomic.Int64

// NextEpoch returns a fresh table-version number (process-global,
// monotonically increasing, never 0).
func NextEpoch() int64 { return epochCounter.Add(1) }

// EnsureEpochAtLeast raises the global epoch counter to at least e.
// The persistence layer calls it when reloading tables that keep their
// saved epochs, so future NextEpoch values can never collide with a
// restored version (cache fingerprints embed epochs and must stay
// unique per data version).
func EnsureEpochAtLeast(e int64) {
	for {
		cur := epochCounter.Load()
		if cur >= e || epochCounter.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Seal marks every column immutable: rows [0, NumRows()) can no longer
// change and in-place Append* panic. Growth after sealing goes through
// AppendRows, which builds a new version. Called by catalog registration;
// idempotent AND race-safe — concurrent queries may re-register the same
// table (e.g. pinning a view version), so the writes run exactly once.
func (t *Table) Seal() {
	t.sealOnce.Do(func() {
		for _, c := range t.Cols {
			c.sealed = true
		}
		if len(t.Segments) == 0 {
			t.Segments = []int{t.NumRows()}
		}
		// Encode the freshly sealed segments (a cheap stats pass per
		// segment; see encoding.go). Runs before the table becomes
		// visible to queries — registration publishes after Seal — so
		// readers only ever observe a fully built encoding list.
		for _, c := range t.Cols {
			c.buildEncodings(t.Segments)
		}
	})
}

// AppendRows builds the successor version of a sealed table: a new
// *Table containing t's rows followed by delta's rows, with a fresh
// Epoch and one more sealed segment. The receiver is never mutated in a
// way its readers can observe — each new column shares t's prefix
// arrays, and delta rows land either past the shared arrays' lengths
// (when this version owns the spare capacity; existing slice headers
// cannot reach them) or in a freshly allocated array. Dictionary-encoded
// columns get a copy-on-write dictionary: delta strings are re-interned,
// and when the delta introduces new strings the dict and index are
// cloned, so readers of t keep seeing exactly their sealed dict prefix.
//
// delta must have the same column names and kinds as t (any order).
// Callers append through one goroutine at a time per table chain (the
// session's ingest lock); concurrent *readers* of t need no coordination.
func (t *Table) AppendRows(delta *Table) (*Table, error) {
	if err := delta.Validate(); err != nil {
		return nil, fmt.Errorf("append to %s: %w", t.Name, err)
	}
	if len(delta.Cols) != len(t.Cols) {
		return nil, fmt.Errorf("append to %s: %d columns, want %d", t.Name, len(delta.Cols), len(t.Cols))
	}
	out := &Table{Name: t.Name, byName: map[string]int{}, Epoch: NextEpoch()}
	for _, c := range t.Cols {
		d := delta.Col(c.Name)
		if d == nil {
			return nil, fmt.Errorf("append to %s: missing column %s", t.Name, c.Name)
		}
		if d.Kind != c.Kind {
			return nil, fmt.Errorf("append to %s: column %s is %s, want %s", t.Name, c.Name, d.Kind, c.Kind)
		}
		if err := out.AddColumn(c.appendVersion(d)); err != nil {
			return nil, err
		}
	}
	segs := t.Segments
	if len(segs) == 0 {
		segs = []int{t.NumRows()}
	}
	out.Segments = append(append([]int(nil), segs...), t.NumRows()+delta.NumRows())
	return out, nil
}

// appendVersion produces the successor version of one column: c's rows
// followed by d's, sharing c's prefix storage. Tail ownership moves from
// c to the new version.
func (c *Column) appendVersion(d *Column) *Column {
	n := NewColumn(c.Name, c.Kind)
	n.sealed, n.ownsTail = true, true
	// Prefix encodings carry over unchanged (same coordinates; the
	// encodings are immutable). Capacity-capped so the successor's own
	// tail encoding never grows into a shared array. The new tail
	// segment is encoded when the successor table seals.
	n.encs = c.encs[:len(c.encs):len(c.encs)]
	switch c.Kind {
	case KindFloat:
		n.F = appendTail(c.F, d.F, c.ownsTail)
	case KindInt:
		n.I = appendTail(c.I, d.I, c.ownsTail)
	default:
		codes := c.Codes
		if !c.ownsTail {
			codes = codes[:len(codes):len(codes)]
		}
		dict, index := c.dict, c.index
		cloned := false
		for i := 0; i < d.Len(); i++ {
			s := d.StringAt(i)
			code, ok := index[s]
			if !ok {
				if !cloned {
					// First new string: clone the dict map and cap the
					// dict slice so growth reallocates instead of
					// touching storage shared with c's readers.
					ni := make(map[string]int32, len(index)+4)
					for k, v := range index {
						ni[k] = v
					}
					index = ni
					dict = dict[:len(dict):len(dict)]
					cloned = true
				}
				code = int32(len(dict))
				dict = append(dict, s)
				index[s] = code
			}
			codes = append(codes, code)
		}
		n.Codes, n.dict, n.index = codes, dict, index
	}
	c.ownsTail = false
	return n
}

// appendTail extends a sealed prefix with delta values. When the prefix
// version owns its array's spare capacity and the delta fits there, the
// extension happens in place past len (invisible to holders of the prefix
// header); otherwise the rows move to a fresh array, leaving the shared
// one untouched. The fresh array carries 1/16 headroom where append would
// leave 1/4: a table grown by small deltas then never holds more than ~6%
// of a column as unused capacity, for an amortized 16 element copies per
// appended row.
func appendTail[T any](prefix, delta []T, ownsTail bool) []T {
	n := len(prefix) + len(delta)
	if ownsTail && n <= cap(prefix) {
		return append(prefix, delta...)
	}
	out := make([]T, n, n+n/16)
	copy(out, prefix)
	copy(out[len(prefix):], delta)
	return out
}

// Validate checks the table has no deferred construction error and all
// columns have equal length.
func (t *Table) Validate() error {
	if t.err != nil {
		return t.err
	}
	n := t.NumRows()
	for _, c := range t.Cols {
		if c.Len() != n {
			return fmt.Errorf("table %s: column %s has %d rows, want %d", t.Name, c.Name, c.Len(), n)
		}
	}
	return nil
}

// WriteCSV writes the table with a typed header (name:kind per field).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(bufio.NewWriterSize(w, 1<<20))
	header := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		header[i] = c.Name + ":" + c.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(t.Cols))
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.Cols {
			row[j] = c.csvString(i)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVOptions controls malformed-row handling during CSV import.
type CSVOptions struct {
	// SkipBadRows drops rows with the wrong field count or unparsable
	// values instead of failing the load; ReadCSVWith reports how many
	// rows were skipped.
	SkipBadRows bool
}

// ReadCSV reads a table written by WriteCSV, rejecting malformed rows
// with a line-numbered error.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	t, _, err := ReadCSVWith(name, r, CSVOptions{})
	return t, err
}

// ReadCSVWith reads a table written by WriteCSV. Malformed rows (wrong
// field count, unparsable numeric fields) either fail with an error
// naming the offending line and column, or — with SkipBadRows — are
// dropped whole (never partially applied) and counted. Line numbers
// assume one record per line (quoted embedded newlines shift them).
func ReadCSVWith(name string, r io.Reader, opts CSVOptions) (*Table, int, error) {
	cr := csv.NewReader(bufio.NewReaderSize(r, 1<<20))
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // field counts are validated here, with line numbers
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: read header: %w", name, err)
	}
	t := NewTable(name)
	for _, h := range header {
		parts := strings.SplitN(h, ":", 2)
		kind := KindFloat
		if len(parts) == 2 {
			switch parts[1] {
			case "int":
				kind = KindInt
			case "string":
				kind = KindString
			case "float":
				kind = KindFloat
			default:
				return nil, 0, fmt.Errorf("%s: header: unknown column kind %q", name, parts[1])
			}
		}
		if err := t.AddColumn(NewColumn(parts[0], kind)); err != nil {
			return nil, 0, fmt.Errorf("%s: header: %w", name, err)
		}
	}
	// Rows are parsed fully into scratch before committing, so a bad
	// field never leaves a half-appended row behind.
	type cell struct {
		f float64
		i int64
		s string
	}
	row := make([]cell, len(t.Cols))
	line := 1 // header
	skipped := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			if opts.SkipBadRows {
				skipped++
				continue
			}
			return nil, skipped, fmt.Errorf("%s: line %d: %w", name, line, err)
		}
		if len(rec) != len(t.Cols) {
			if opts.SkipBadRows {
				skipped++
				continue
			}
			return nil, skipped, fmt.Errorf("%s: line %d: %d fields, want %d", name, line, len(rec), len(t.Cols))
		}
		bad := error(nil)
		for j, c := range t.Cols {
			switch c.Kind {
			case KindFloat:
				v, err := strconv.ParseFloat(rec[j], 64)
				if err != nil {
					bad = fmt.Errorf("%s: line %d: column %s: %w", name, line, c.Name, err)
				}
				row[j].f = v
			case KindInt:
				v, err := strconv.ParseInt(rec[j], 10, 64)
				if err != nil {
					bad = fmt.Errorf("%s: line %d: column %s: %w", name, line, c.Name, err)
				}
				row[j].i = v
			default:
				row[j].s = rec[j]
			}
			if bad != nil {
				break
			}
		}
		if bad != nil {
			if opts.SkipBadRows {
				skipped++
				continue
			}
			return nil, skipped, bad
		}
		for j, c := range t.Cols {
			switch c.Kind {
			case KindFloat:
				c.AppendFloat(row[j].f)
			case KindInt:
				c.AppendInt(row[j].i)
			default:
				c.AppendString(row[j].s)
			}
		}
	}
	return t, skipped, t.Validate()
}

// SaveCSVFile writes the table to a file path.
func (t *Table) SaveCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadCSVFile reads a table from a file path; the table is named after
// the file's base name sans extension unless name is non-empty.
func LoadCSVFile(name, path string) (*Table, error) {
	t, _, err := LoadCSVFileWith(name, path, CSVOptions{})
	return t, err
}

// LoadCSVFileWith reads a table from a file path with explicit
// malformed-row handling, reporting the number of skipped rows.
func LoadCSVFileWith(name, path string, opts CSVOptions) (*Table, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadCSVWith(name, f, opts)
}
