// Incremental ingestion: the write side of the session's MVCC-lite
// model. Append publishes a new immutable version of a table (built by
// storage.Table.AppendRows, which seals the delta as one more column
// segment) and, instead of throwing cached work away, *delta-maintains*
// it: every aggregation state in the paper's canonical form is a monoid
// fold (Σ⊕ f(b)), so the states of the delta batch alone, ⊕-merged per
// group into the previously cached values, equal the states of the
// concatenated data. The same identity maintains materialized state
// views. Entries that cannot be re-planned over the delta (e.g. they
// were fed by a per-query subquery temporary) fall back to targeted
// invalidation, surfaced as a degradation event.
//
// Queries never block on ingestion and vice versa: a query pins a
// catalog snapshot at admission (one version of every table), appends
// build successor versions without mutating anything a reader can see,
// and the maintenance pass runs entirely against catalog overlays before
// the new version is published.

package core

import (
	"context"
	"fmt"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/catalog"
	"sudaf/internal/exec"
	"sudaf/internal/rewrite"
	"sudaf/internal/sqlparse"
	"sudaf/internal/storage"
)

// maintRec is the maintenance record attached to every cache entry: the
// key it was computed under, whose table versions decide whether an
// append affects it, and the statement whose data part produced it. An
// append whose pre-append versions match re-plans the statement over the
// delta batch and ⊕-merges; any mismatch means the entry belongs to a
// superseded version and is skipped. stmt is nil where the entry is not
// delta-maintainable (windowed entries; entries restored from a snapshot,
// whose key carries only its tables): a matching append invalidates it.
type maintRec struct {
	stmt *sqlparse.Stmt
	key  exec.DataKey
}

// viewMaint is the maintenance state of one materialized view: the view
// (whose key holds the base-table versions its contents reflect), its
// defining statement, and an eviction-independent snapshot of its
// per-group state values (the cache may drop the view's entry at any
// time; the view table itself must stay maintainable).
type viewMaint struct {
	view *rewrite.View
	stmt *sqlparse.Stmt
	snap cache.EntrySnapshot
}

// AppendResult reports what one append batch did: the rows ingested, the
// table-version transition, and how the cached work was carried across
// it (delta-maintained vs invalidated).
type AppendResult struct {
	// Table is the appended table's name.
	Table string
	// RowsAppended is the delta batch's row count (0 for a no-op append,
	// which does not create a new version).
	RowsAppended int
	// OldEpoch and NewEpoch are the table versions before and after the
	// append (equal for a no-op).
	OldEpoch, NewEpoch int64
	// EntriesMigrated counts cache entries delta-maintained onto the new
	// version; StatesMaintained totals their per-entry states.
	EntriesMigrated  int
	StatesMaintained int
	// EntriesInvalidated counts cache entries referencing the old version
	// that had to be dropped instead of maintained.
	EntriesInvalidated int
	// ViewsMaintained / ViewsInvalidated count materialized views
	// delta-folded vs dropped.
	ViewsMaintained  int
	ViewsInvalidated int
	// Events lists the degradation events (one per invalidation); the
	// same events are also queued on the cache and surface in the next
	// share-mode query's Result.Events.
	Events []string
}

// Append ingests a batch of rows into a registered table. The delta must
// have the table's columns (same names and kinds, any order). On return
// the session catalog serves the new table version; queries already in
// flight keep their pinned snapshot and never observe the new rows.
//
// Before publishing, Append delta-maintains derived results: every cache
// entry whose maintenance record matches the pre-append versions gets
// the delta's per-group states ⊕-merged in and moves to the post-append
// fingerprint, and every materialized view over the table is rebuilt the
// same way — no base-data rescan in either case. Unmaintainable entries
// and views are invalidated, each with an AppendResult.Events note.
//
// Appends are serialized per session; Append is safe to call
// concurrently with queries and other appends.
func (s *Session) Append(ctx context.Context, table string, delta *storage.Table) (res *AppendResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if delta == nil {
		return nil, fmt.Errorf("append to %s: nil delta", table)
	}
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("append to %s panicked (recovered): %v", table, r)
		}
	}()
	// Lifecycle gate: a closed (draining) session rejects new appends;
	// admitted ones are tracked so Close waits for the maintenance pass
	// and the version publish to finish.
	if err := s.beginOp("append"); err != nil {
		return nil, err
	}
	defer s.endOp()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	s.mu.RLock()
	_, isView := s.views[table]
	s.mu.RUnlock()
	if isView {
		return nil, fmt.Errorf("append to %s: table is a materialized view", table)
	}
	old, err := s.cat.Table(table)
	if err != nil {
		return nil, err
	}
	res = &AppendResult{Table: table, OldEpoch: old.Epoch, NewEpoch: old.Epoch}
	if err := delta.Validate(); err != nil {
		return nil, fmt.Errorf("append to %s: %w", table, err)
	}
	// Schema is checked even for empty deltas, so a miswired caller fails
	// loudly instead of silently no-opping.
	if len(delta.Cols) != len(old.Cols) {
		return nil, fmt.Errorf("append to %s: %d columns, want %d", table, len(delta.Cols), len(old.Cols))
	}
	for _, c := range old.Cols {
		d := delta.Col(c.Name)
		if d == nil {
			return nil, fmt.Errorf("append to %s: missing column %s", table, c.Name)
		}
		if d.Kind != c.Kind {
			return nil, fmt.Errorf("append to %s: column %s is %s, want %s", table, c.Name, d.Kind, c.Kind)
		}
	}
	if delta.NumRows() == 0 {
		// Nothing to ingest: keep the current version (and with it every
		// cached fingerprint) instead of churning epochs.
		s.noteAppend(res)
		return res, nil
	}

	newTbl, err := old.AppendRows(delta)
	if err != nil {
		return nil, err
	}
	res.RowsAppended = delta.NumRows()
	res.NewEpoch = newTbl.Epoch

	// Two planning overlays, neither published: deltaCat resolves the
	// table to just the delta rows (a zero-copy slice of the new version,
	// sharing its dictionary so group codes line up with cached keys);
	// postCat resolves it to the full new version (for post-append
	// fingerprints). Every other table resolves to its current session
	// version in both.
	deltaCat := s.cat.Overlay()
	if err := deltaCat.Register(newTbl.Slice(old.NumRows(), newTbl.NumRows())); err != nil {
		return nil, fmt.Errorf("append to %s: delta view: %w", table, err)
	}
	postCat := s.cat.Overlay()
	if err := postCat.Register(newTbl); err != nil {
		return nil, fmt.Errorf("append to %s: %w", table, err)
	}

	c := s.stateCache()
	invalidate := func(fp, why string) {
		c.Remove(fp)
		ev := fmt.Sprintf("ingest: %s@%d→%d: cache entry %s %s; invalidated", table, res.OldEpoch, res.NewEpoch, fp, why)
		res.Events = append(res.Events, ev)
		c.AddEvent(ev)
		res.EntriesInvalidated++
	}
	// Before publish, s.cat still resolves the table at old.Epoch, so a
	// key that reads it and is current reads exactly the pre-append data.
	for _, snap := range c.Snapshot() {
		mr, _ := snap.Maint.(*maintRec)
		switch {
		case mr == nil:
			// Restored from a snapshot that did not record its tables:
			// which versions it read is unknown, so any append drops it.
			invalidate(snap.Fingerprint, "has no maintenance record")
			continue
		case !mr.key.Reads(table, old.Epoch):
			// The entry does not touch this table (still valid as-is) or
			// was computed at a superseded version (already unreachable
			// garbage for new keys); either way, leave it alone.
			continue
		case mr.stmt == nil:
			invalidate(snap.Fingerprint, "is not delta-maintainable")
			continue
		case !mr.key.Current(s.cat):
			continue // another table it reads has moved on
		}
		n, err := s.migrateEntry(ctx, c, snap, mr, deltaCat, postCat)
		if err != nil {
			invalidate(snap.Fingerprint, fmt.Sprintf("not delta-maintainable (%v)", err))
			continue
		}
		res.EntriesMigrated++
		res.StatesMaintained += n
	}

	// Materialized views over the table: same monoid fold, applied to the
	// view's own state snapshot, then re-materialized as a fresh table
	// version. Failures drop the view (a stale view must never answer a
	// roll-up or a direct query).
	s.mu.RLock()
	vms := make(map[string]*viewMaint, len(s.viewMaints))
	for n, vm := range s.viewMaints {
		vms[n] = vm
	}
	s.mu.RUnlock()
	for name, vm := range vms {
		if key := &vm.view.Key; !key.Reads(table, old.Epoch) || !key.Current(s.cat) {
			continue
		}
		nvm, verr := s.maintainView(ctx, vm, deltaCat, postCat)
		if verr == nil {
			verr = s.cat.Register(nvm.view.Table)
		}
		if verr != nil {
			s.DropView(name)
			ev := fmt.Sprintf("ingest: %s@%d→%d: view %s not delta-maintainable (%v); dropped", table, res.OldEpoch, res.NewEpoch, name, verr)
			res.Events = append(res.Events, ev)
			c.AddEvent(ev)
			res.ViewsInvalidated++
			continue
		}
		s.mu.Lock()
		s.views[name] = nvm.view
		s.viewMaints[name] = nvm
		s.mu.Unlock()
		res.ViewsMaintained++
	}

	// Route the delta to its owning shard before publishing, so no query
	// pins the new version while its shard set still partitions the old.
	if s.shards != nil {
		s.shards.routeAppend(old, newTbl)
	}

	// Publish: from here on, new snapshots pin the new version. In-flight
	// queries keep the old one, and keep hitting its epoch-qualified
	// cache entries (migration copies, never mutates or removes them);
	// entries invalidated above recompute — never read stale state.
	if err := s.cat.Register(newTbl); err != nil {
		return nil, fmt.Errorf("append to %s: publish: %w", table, err)
	}
	// Notify continuous subscriptions after publish, still under
	// ingestMu: one note per append, in append order (the FIFO /
	// exactly-once half of the Subscribe contract).
	s.notifySubs(table, newTbl, old.NumRows(), newTbl.NumRows())
	s.noteAppend(res)
	return res, nil
}

// noteAppend folds one successful append into the session-lifetime
// ingestion counters (see IngestStats and the sudaf_ingest_* metrics).
func (s *Session) noteAppend(res *AppendResult) {
	s.appends.Add(1)
	s.rowsAppended.Add(int64(res.RowsAppended))
	s.entriesMigrated.Add(int64(res.EntriesMigrated))
	s.statesMaintained.Add(int64(res.StatesMaintained))
	s.entriesInvalidated.Add(int64(res.EntriesInvalidated))
	s.viewsMaintained.Add(int64(res.ViewsMaintained))
	s.viewsInvalidated.Add(int64(res.ViewsInvalidated))
}

// AppendCSV ingests a CSV batch (WriteCSV's typed-header format) into a
// registered table through Append. It honors the same skip-bad-rows
// policy as the initial CSV load path: malformed rows (wrong field
// count, unparsable values) are skipped and reported in
// AppendResult.Events instead of failing the whole delta. Use
// AppendCSVWith for strict all-or-nothing ingestion.
func (s *Session) AppendCSV(ctx context.Context, table, path string) (*AppendResult, error) {
	return s.AppendCSVWith(ctx, table, path, storage.CSVOptions{SkipBadRows: true})
}

// AppendCSVWith ingests a CSV batch with explicit malformed-row
// handling: with SkipBadRows set, bad rows are skipped, counted and
// surfaced as an AppendResult.Events note; without it, the first bad
// row fails the whole delta with a line-numbered error and nothing is
// ingested.
func (s *Session) AppendCSVWith(ctx context.Context, table, path string, opts storage.CSVOptions) (*AppendResult, error) {
	delta, skipped, err := storage.LoadCSVFileWith(table, path, opts)
	if err != nil {
		return nil, err
	}
	res, err := s.Append(ctx, table, delta)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		res.Events = append(res.Events,
			fmt.Sprintf("ingest: %s: skipped %d malformed CSV row(s); %d row(s) ingested", table, skipped, res.RowsAppended))
	}
	return res, nil
}

// runDeltaStates re-plans a statement's data part over the delta catalog
// and computes the given canonical states on the delta rows only,
// returning the group result plus per-state value vectors and delta
// positivity (whether every delta base value is provably > 0). A grand
// aggregate (no GROUP BY) always yields exactly one group, with identity
// values when no delta row passes the filters — which merges as a no-op.
func (s *Session) runDeltaStates(ctx context.Context, dc *catalog.Catalog, stmt *sqlparse.Stmt,
	states []canonical.State) (gr *exec.GroupResult, vals map[string][]float64, pos map[string]bool, err error) {

	defer func() {
		if r := recover(); r != nil {
			gr, vals, pos = nil, nil, nil
			err = fmt.Errorf("delta run panicked (recovered): %v", r)
		}
	}()
	dp, err := s.eng.PrepareDataIn(dc, stmt)
	if err != nil {
		return nil, nil, nil, err
	}
	reg := exec.NewTaskRegistry()
	idx := make([]int, len(states))
	for i, st := range states {
		idx[i] = addStateTask(reg, st, st.Key())
	}
	gr, err = s.eng.RunSpecs(ctx, dp, reg)
	if err != nil {
		return nil, nil, nil, err
	}
	vals = make(map[string][]float64, len(states))
	pos = make(map[string]bool, len(states))
	for i, st := range states {
		vals[st.Key()] = gr.Values[idx[i]]
		pos[st.Key()] = basePositive(dc, st.Base, dp.Tables())
	}
	return gr, vals, pos, nil
}

// migrateEntry delta-maintains one cache entry: computes its states on
// the delta rows, ⊕-merges them into the snapshot, and installs the
// result under the post-append fingerprint. It returns the number of
// states maintained.
//
// The superseded entry is deliberately left in place. Fingerprints are
// epoch-qualified, so it can never serve a query over newer data — but a
// batch (or any in-flight query) pinned to the pre-append snapshot may
// still hit it, and must: a maintained entry's ⊕-merged values differ in
// the last ulp from a cold rescan's fold, so evicting it mid-batch would
// let two identical queries in one batch disagree bit-for-bit. Later
// appends skip it (its maintenance record no longer matches) and the LRU
// reclaims it under budget pressure.
func (s *Session) migrateEntry(ctx context.Context, c *cache.Cache, snap cache.EntrySnapshot,
	mr *maintRec, deltaCat, postCat *catalog.Catalog) (int, error) {

	states := make([]canonical.State, len(snap.States))
	for i, cs := range snap.States {
		states[i] = cs.State
	}
	gr, vals, pos, err := s.runDeltaStates(ctx, deltaCat, mr.stmt, states)
	if err != nil {
		return 0, err
	}
	dpNew, err := s.eng.PrepareDataIn(postCat, mr.stmt)
	if err != nil {
		return 0, err
	}
	merged, err := cache.MergeDelta(snap, dpNew.Key.String(), gr.Keys, gr.KeyColumns, vals, pos,
		&maintRec{stmt: mr.stmt, key: dpNew.Key})
	if err != nil {
		return 0, err
	}
	c.Put(merged)
	return len(states), nil
}

// maintainView delta-maintains one materialized view: merges the delta
// states into the view's snapshot and re-materializes the view table
// (fresh columns; the old version stays readable by pinned queries).
func (s *Session) maintainView(ctx context.Context, vm *viewMaint,
	deltaCat, postCat *catalog.Catalog) (*viewMaint, error) {

	states := make([]canonical.State, len(vm.snap.States))
	for i, cs := range vm.snap.States {
		states[i] = cs.State
	}
	gr, vals, pos, err := s.runDeltaStates(ctx, deltaCat, vm.stmt, states)
	if err != nil {
		return nil, err
	}
	dpNew, err := s.eng.PrepareDataIn(postCat, vm.stmt)
	if err != nil {
		return nil, err
	}
	merged, err := cache.MergeDelta(vm.snap, dpNew.Key.String(), gr.Keys, gr.KeyColumns, vals, pos, nil)
	if err != nil {
		return nil, err
	}
	v := *vm.view
	v.Key = dpNew.Key
	v.Table = merged.ToTable(v.Name, func(_ int, cs *cache.CachedState) string {
		return v.StateCols[cs.State.Key()]
	})
	if err := v.Table.Validate(); err != nil {
		return nil, err
	}
	return &viewMaint{view: &v, stmt: vm.stmt, snap: merged.SnapshotEntry()}, nil
}
