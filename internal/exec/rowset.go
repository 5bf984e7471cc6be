package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sudaf/internal/faultinject"
	"sudaf/internal/storage"
)

// RowSet is the materialized result of the scan/filter/join phase: one
// row-index vector per base table, all the same length. Row i of the
// joined relation is (vecs[t0][i], vecs[t1][i], …).
//
// An unfiltered table that has not been through a join has a nil vector
// rather than a materialized [0..n): every reader of an indirection vector
// (the accessors, GatherFloats, the kernels, the dense assign loops, the
// join) indexes the column directly when handed nil.
type RowSet struct {
	n      int
	tables []*storage.Table
	vecs   map[string][]int32
}

// identity reports a single-table, unfiltered row set: row i of the set
// IS row i of the table, so morsel windows map 1:1 onto column row ranges
// — the precondition for aggregating directly over encoded segments
// (run-folds).
func (rs *RowSet) identity() bool {
	return len(rs.tables) == 1 && rs.vecs[rs.tables[0].Name] == nil
}

// rowSel is one table's filtered rows: an ascending row-index vector,
// or — rows nil — every row [0, n) of the table.
type rowSel struct {
	rows []int32
	n    int
}

// physRow maps row i through an indirection vector; nil is the identity.
func physRow(rows []int32, i int) int32 {
	if rows == nil {
		return int32(i)
	}
	return rows[i]
}

// Len returns the joined row count.
func (rs *RowSet) Len() int { return rs.n }

// Bind returns an accessor factory resolving column names across the
// joined tables (column names are globally unique in our star schemas).
func (rs *RowSet) Bind(name string) (Accessor, error) {
	for _, t := range rs.tables {
		if c := t.Col(name); c != nil {
			return colAccessor(c, rs.vecs[t.Name]), nil
		}
	}
	return nil, fmt.Errorf("unknown column %q", name)
}

// BindColumn resolves a column name to its physical column and row
// indirection vector, the raw material of the vectorized batch kernels.
// Together with Bind this makes *RowSet implement Binder.
func (rs *RowSet) BindColumn(name string) (*storage.Column, []int32, error) {
	for _, t := range rs.tables {
		if c := t.Col(name); c != nil {
			return c, rs.vecs[t.Name], nil
		}
	}
	return nil, nil, fmt.Errorf("unknown column %q", name)
}

// bindInt resolves a group-key accessor.
func (rs *RowSet) bindInt(pc planCol) func(int32) int64 {
	return intAccessor(pc.col, rs.vecs[pc.table.Name])
}

// buildRowSet runs scans, filters and the left-deep hash join.
func (dp *DataPlan) buildRowSet(ctx context.Context) (*RowSet, error) {
	sels := map[string]rowSel{}
	for _, t := range dp.tables {
		sel, err := selection(ctx, t, dp.filters[t.Name])
		if err != nil {
			return nil, err
		}
		sels[t.Name] = sel
	}
	if len(dp.tables) == 1 {
		t := dp.tables[0]
		sel := sels[t.Name]
		return &RowSet{n: sel.n, tables: dp.tables,
			vecs: map[string][]int32{t.Name: sel.rows}}, nil
	}

	// Start from the largest filtered table (the fact table) and fold the
	// remaining tables in via hash joins along the equi-join graph.
	start := dp.tables[0]
	for _, t := range dp.tables[1:] {
		if sels[t.Name].n > sels[start.Name].n {
			start = t
		}
	}
	rs := &RowSet{
		n:      sels[start.Name].n,
		tables: []*storage.Table{start},
		vecs:   map[string][]int32{start.Name: sels[start.Name].rows},
	}
	joined := map[string]bool{start.Name: true}
	remaining := append([]joinCond{}, dp.joins...)
	for len(joined) < len(dp.tables) {
		idx := -1
		var jc joinCond
		for i, c := range remaining {
			l, r := joined[c.lt.Name], joined[c.rt.Name]
			if l != r { // connects the joined set to a new table
				idx, jc = i, c
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("join graph disconnected: joined %v of %v", keys(joined), dp.Tables())
		}
		remaining = append(remaining[:idx], remaining[idx+1:]...)
		// Orient: probe side already joined, build side new.
		probeT, probeC, buildT, buildC := jc.lt, jc.lc, jc.rt, jc.rc
		if !joined[probeT.Name] {
			probeT, probeC, buildT, buildC = jc.rt, jc.rc, jc.lt, jc.lc
		}
		if err := rs.hashJoin(ctx, dp.eng.Workers, probeT, probeC, buildT, buildC, sels[buildT.Name]); err != nil {
			return nil, err
		}
		joined[buildT.Name] = true
		// Apply any remaining conditions between already-joined tables as
		// post-join filters.
		for i := 0; i < len(remaining); {
			c := remaining[i]
			if joined[c.lt.Name] && joined[c.rt.Name] {
				rs.filterEqual(c)
				remaining = append(remaining[:i], remaining[i+1:]...)
				continue
			}
			i++
		}
	}
	return rs, nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// joinSpanFactor bounds a direct-address join table past the 64K-slot
// allowance every key domain gets: up to this many int32 slots per build
// row, which keeps the table within the footprint of the hash map it
// replaces (a map[int64]int32 entry costs 12 bytes before load-factor
// slack; 8 slots cost 32).
const joinSpanFactor = 8

// Join-table slot markers (slots ≥ 0 hold the key's one build row).
const (
	joinAbsent = -1 // no build row has this key (what emptyLookup writes)
	joinMulti  = -2 // several do: they are in the multimap
)

// joinTable is the build side of an equi-join: key → build row, or
// joinMulti → the key's rows in multi (dimension keys are usually unique).
// When the build key column's domain is dense (keyDomainOf) the slots are
// a direct-address table indexed by key-base, otherwise a hash map.
type joinTable struct {
	base   int64
	direct []int32         // dense domain: one slot per possible key
	sparse map[int64]int32 // any other
	multi  map[int64][]int32
}

func buildJoinTable(col *storage.Column, sel rowSel) *joinTable {
	jt := &joinTable{}
	width := int64(joinSpanFactor) * int64(sel.n)
	if width < maxDenseKeyWidth {
		width = maxDenseKeyWidth
	}
	if d := keyDomainOf(col, width); d.dense {
		jt.base, jt.direct = d.base, emptyLookup(make([]int32, d.width))
	} else {
		jt.sparse = make(map[int64]int32, sel.n)
	}
	for i := 0; i < sel.n; i++ {
		row := physRow(sel.rows, i)
		k := col.AsInt(int(row))
		switch prev := jt.find(k); prev {
		case joinAbsent:
			jt.set(k, row)
		case joinMulti:
			jt.multi[k] = append(jt.multi[k], row)
		default:
			if jt.multi == nil {
				jt.multi = map[int64][]int32{}
			}
			jt.multi[k] = []int32{prev, row}
			jt.set(k, joinMulti)
		}
	}
	return jt
}

// find returns key k's slot: its build row, joinAbsent or joinMulti.
func (jt *joinTable) find(k int64) int32 {
	if jt.direct != nil {
		// One unsigned compare rejects keys on either side of the domain.
		if s := uint64(k - jt.base); s < uint64(len(jt.direct)) {
			return jt.direct[s]
		}
		return joinAbsent
	}
	if row, ok := jt.sparse[k]; ok {
		return row
	}
	return joinAbsent
}

// set writes key k's slot; on a dense table k must be a build key.
func (jt *joinTable) set(k int64, slot int32) {
	if jt.direct != nil {
		jt.direct[k-jt.base] = slot
	} else {
		jt.sparse[k] = slot
	}
}

// hashJoin builds a join table over the build side's selected rows and
// probes with the current row set, expanding it in place. Probing is
// chunked across workers; chunk outputs are concatenated in order so the
// result is deterministic. Worker panics are recovered and surfaced as
// errors, and probing polls ctx so long joins can be cancelled.
func (rs *RowSet) hashJoin(ctx context.Context, workers int, probeT *storage.Table, probeC *storage.Column,
	buildT *storage.Table, buildC *storage.Column, buildSel rowSel) error {

	if err := faultinject.Hit(faultinject.PointExecJoin); err != nil {
		return fmt.Errorf("join %s⋈%s: %w", probeT.Name, buildT.Name, err)
	}
	jt := buildJoinTable(buildC, buildSel)
	probeKey := intAccessor(probeC, rs.vecs[probeT.Name])

	type chunkOut struct {
		keep  []int32 // indexes into the current rowset
		build []int32 // matched build rows, aligned with keep
	}
	nchunks := workers
	if nchunks > rs.n/4096+1 {
		nchunks = rs.n/4096 + 1
	}
	outs := make([]chunkOut, nchunks)
	errs := make([]error, nchunks)
	var wg sync.WaitGroup
	chunk := (rs.n + nchunks - 1) / nchunks
	for c := 0; c < nchunks; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > rs.n {
			hi = rs.n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			// Isolate faults: a panicking probe worker must not kill the
			// process; it becomes an error joined after the barrier.
			defer func() {
				if r := recover(); r != nil {
					errs[c] = fmt.Errorf("join worker panic (recovered): %v", r)
				}
			}()
			keep := make([]int32, 0, hi-lo)
			build := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if (i-lo)%cancelCheckRows == 0 {
					if err := ctx.Err(); err != nil {
						errs[c] = err
						return
					}
				}
				k := probeKey(int32(i))
				switch row := jt.find(k); {
				case row >= 0:
					keep = append(keep, int32(i))
					build = append(build, row)
				case row == joinMulti:
					for _, r := range jt.multi[k] {
						keep = append(keep, int32(i))
						build = append(build, r)
					}
				}
			}
			outs[c] = chunkOut{keep: keep, build: build}
		}(c, lo, hi)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	total := 0
	for _, o := range outs {
		total += len(o.keep)
	}
	// Rebuild all existing vectors through keep, and add the build vector.
	newVecs := map[string][]int32{}
	for _, t := range rs.tables {
		name, vec := t.Name, rs.vecs[t.Name]
		nv := make([]int32, total)
		pos := 0
		for _, o := range outs {
			for _, i := range o.keep {
				nv[pos] = physRow(vec, int(i))
				pos++
			}
		}
		newVecs[name] = nv
	}
	bv := make([]int32, 0, total)
	for _, o := range outs {
		bv = append(bv, o.build...)
	}
	newVecs[buildT.Name] = bv
	rs.vecs = newVecs
	rs.n = total
	rs.tables = append(rs.tables, buildT)
	return nil
}

// filterEqual applies a residual equi-join condition between two already
// joined tables.
func (rs *RowSet) filterEqual(c joinCond) {
	lv, rv := rs.vecs[c.lt.Name], rs.vecs[c.rt.Name]
	keep := make([]int32, 0, rs.n)
	for i := 0; i < rs.n; i++ {
		if c.lc.AsInt(int(physRow(lv, i))) == c.rc.AsInt(int(physRow(rv, i))) {
			keep = append(keep, int32(i))
		}
	}
	for _, t := range rs.tables {
		name, vec := t.Name, rs.vecs[t.Name]
		nv := make([]int32, len(keep))
		for j, i := range keep {
			nv[j] = physRow(vec, int(i))
		}
		rs.vecs[name] = nv
	}
	rs.n = len(keep)
}
