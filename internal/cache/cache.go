// Package cache implements SUDAF's dynamic aggregation-state cache
// (Sections 3.2 and 5 of the paper). The cache is keyed on the *data
// fingerprint* of a query's data part (tables, join conditions,
// predicates, grouping) — the paper's data dimension — and stores, per
// fingerprint, a group table: the group keys plus one value vector per
// cached aggregation state (the computation dimension).
//
// Lookups first try exact state-key matches, then Theorem 4.1 sharing:
// the direct (verified) decision procedure asks of each cached candidate
// whether the requested state is r ∘ s for some scalar rewriting r, and
// the decision's own r is applied per group to the candidate's values
// (Definition 3.1). A hit costs O(#groups) instead of a base-data scan —
// the source of the paper's two-orders-of-magnitude speedups — and writes
// nothing: r(s) is computed each time it is read, never stored, so an
// entry holds only states that were computed from base data.
//
// Every state column carries an integrity checksum. A read verifies a
// column when it is about to serve it — an exact hit's source, a sharing
// candidate the decision accepted, a sign-split companion — never the
// whole entry, so a warm hit costs O(wanted states) however many states
// the entry holds.
//
// Section 5.3's sign handling is supported through companion states: a
// product or log state over data that is not provably positive is cached
// as the pair (Σ ln|b|, Π sgn(b)), from which Π b and the log family are
// reconstructed.
//
// # Concurrency
//
// The cache is safe for concurrent use by any number of query goroutines.
// One mutex guards the fingerprint → entry map, the recency list and the
// byte count, and nothing else. A GroupTable is immutable once it is
// cached: Put's merge, StoreFinal and the drop of a corrupt column each
// build a successor that shares the entry's keys, key columns and index,
// and swap it in only if the entry it was built from is still cached. A
// read holds the mutex only to fetch (and touch) an entry, then resolves,
// verifies and applies r outside it, on a table no writer can change.
// Value slices handed out are shared and read-only. Counters are atomics,
// readable without any lock. The byte budget bounds the whole cache: only
// an entry larger than the budget, alone in the cache, exceeds it.
package cache

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/faultinject"
	"sudaf/internal/scalar"
	"sudaf/internal/sharing"
	"sudaf/internal/storage"
)

// GroupKey mirrors exec.GroupKey (composite int64 group key).
type GroupKey = [2]int64

// CachedState is one aggregation state's per-group values.
type CachedState struct {
	State canonical.State
	Vals  []float64
	// PositiveInput records whether every base value folded into this
	// state was > 0 (enables the positive-domain sharing cases).
	PositiveInput bool
	// checksum is the integrity checksum over Vals, set by AddState and
	// verified when a read is about to serve the state. A mismatch marks
	// the state corrupted: it is dropped and the query recomputes from base
	// data instead of failing.
	checksum uint64
}

// ChecksumVals computes the FNV-1a integrity checksum of a value vector.
func ChecksumVals(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// verify reports whether the state's values still match their checksum.
func (cs *CachedState) verify() bool { return ChecksumVals(cs.Vals) == cs.checksum }

// final is the memoized output column of a hardcoded terminating function
// T over an entry's groups: the paper's sharing idea applied to the one part
// of a UDAF it leaves unshared. T is a pure function of its state columns,
// so a final is identified by content — which T, over which input values —
// and served only to a lookup whose own states carry the same checksums: a
// state replaced by Put, dropped as corrupt or re-derived with other values
// silently retires it, and approx_median(a) cannot answer approx_median(b)
// unless the two columns hold the same values.
type final struct {
	t        string    // canonical.Form.HardTKey
	srcSums  []uint64  // ChecksumVals of each source state column, in call order
	vals     []float64 // one per entry group, in entry order
	checksum uint64    // over vals
}

// GroupTable is the cached content for one data fingerprint. Its one
// owner builds it (NewGroupTable, AddState); once Put it is never written.
type GroupTable struct {
	Fingerprint string
	KeyNames    []string
	Keys        []GroupKey
	KeyCols     []*storage.Column // materialized key columns, aligned with Keys
	// Maint is an opaque maintenance record attached by the session when
	// the entry is Put: everything needed to re-plan this entry's data
	// part over an append delta (statement + the table versions the
	// states were computed at). nil means the entry cannot be delta-
	// maintained and is invalidated (dropped) when its data changes.
	Maint  any
	states []*CachedState
	byKey  map[string]int
	index  map[GroupKey]int
	finals []*final
}

// NewGroupTable creates an empty group table.
func NewGroupTable(fp string, keyNames []string, keys []GroupKey, keyCols []*storage.Column) *GroupTable {
	return newGroupTable(fp, keyNames, keys, keyCols, keyIndex(keys))
}

// newGroupTable is NewGroupTable over a prebuilt key → position index,
// which the table keeps and never mutates.
func newGroupTable(fp string, keyNames []string, keys []GroupKey, keyCols []*storage.Column, index map[GroupKey]int) *GroupTable {
	return &GroupTable{
		Fingerprint: fp,
		KeyNames:    keyNames,
		Keys:        keys,
		KeyCols:     keyCols,
		byKey:       map[string]int{},
		index:       index,
	}
}

func keyIndex(keys []GroupKey) map[GroupKey]int {
	index := make(map[GroupKey]int, len(keys))
	for i, k := range keys {
		index[k] = i
	}
	return index
}

// IndexOf returns the group position of a key.
func (gt *GroupTable) IndexOf(k GroupKey) (int, bool) {
	i, ok := gt.index[k]
	return i, ok
}

// Align reorders values given in the order of keys into this table's
// group order. It fails when the key sets differ.
func (gt *GroupTable) Align(keys []GroupKey, vals []float64) ([]float64, bool) {
	if len(keys) != len(gt.Keys) {
		return nil, false
	}
	out := make([]float64, len(vals))
	for g, k := range keys {
		i, ok := gt.index[k]
		if !ok {
			return nil, false
		}
		out[i] = vals[g]
	}
	return out, true
}

// NumGroups returns the group count.
func (gt *GroupTable) NumGroups() int { return len(gt.Keys) }

// NumStates returns the number of cached states.
func (gt *GroupTable) NumStates() int { return len(gt.states) }

// NumFinals returns the number of memoized terminating-function columns.
func (gt *GroupTable) NumFinals() int { return len(gt.finals) }

// States lists the cached states in entry order; shared and read-only.
func (gt *GroupTable) States() []*CachedState { return gt.states }

// StateKeys lists cached state keys.
func (gt *GroupTable) StateKeys() []string {
	out := make([]string, len(gt.states))
	for i, s := range gt.states {
		out[i] = s.State.Key()
	}
	return out
}

// AddState inserts or replaces a state's values (length must match) and
// stamps the integrity checksum verified on later lookups.
func (gt *GroupTable) AddState(cs *CachedState) error {
	if len(cs.Vals) != len(gt.Keys) {
		return fmt.Errorf("state %s: %d values for %d groups", cs.State.Key(), len(cs.Vals), len(gt.Keys))
	}
	cs.checksum = ChecksumVals(cs.Vals)
	k := cs.State.Key()
	if i, ok := gt.byKey[k]; ok {
		gt.states[i] = cs
		return nil
	}
	gt.byKey[k] = len(gt.states)
	gt.states = append(gt.states, cs)
	return nil
}

// successor copies gt for a change that must not write gt: the copy shares
// everything gt holds but owns the lists of states and finals.
func (gt *GroupTable) successor() *GroupTable {
	next := newGroupTable(gt.Fingerprint, gt.KeyNames, gt.Keys, gt.KeyCols, gt.index)
	next.Maint = gt.Maint
	next.states = slices.Clone(gt.states)
	next.byKey = maps.Clone(gt.byKey)
	next.finals = slices.Clone(gt.finals)
	return next
}

// merge returns the successor of gt that also holds in's states, realigned
// to gt's group order, and in's maintenance record when it has one — or in
// itself when the group sets differ (the data changed).
func (gt *GroupTable) merge(in *GroupTable) *GroupTable {
	next := gt.successor()
	for _, s := range in.states {
		aligned, ok := gt.Align(in.Keys, s.Vals)
		if !ok {
			return in
		}
		_ = next.AddState(&CachedState{State: s.State, Vals: aligned, PositiveInput: s.PositiveInput})
	}
	if in.Maint != nil {
		next.Maint = in.Maint
	}
	return next
}

// dropState removes a state by key, rebuilding the key index.
func (gt *GroupTable) dropState(key string) {
	i, ok := gt.byKey[key]
	if !ok {
		return
	}
	gt.states = append(gt.states[:i], gt.states[i+1:]...)
	delete(gt.byKey, key)
	for k, j := range gt.byKey {
		if j > i {
			gt.byKey[k] = j - 1
		}
	}
}

// Exact returns the cached state with the given key.
func (gt *GroupTable) Exact(key string) (*CachedState, bool) {
	if i, ok := gt.byKey[key]; ok {
		return gt.states[i], true
	}
	return nil, false
}

// final returns the position in gt.finals of T's memoized column over
// source columns with the given checksums, -1 when none is stored.
func (gt *GroupTable) final(t string, srcSums []uint64) int {
	return slices.IndexFunc(gt.finals, func(f *final) bool { return f.t == t && slices.Equal(f.srcSums, srcSums) })
}

// bytes approximates the memory footprint for eviction accounting.
func (gt *GroupTable) bytes() int64 {
	per := int64(16) // key
	per += int64(len(gt.states)+len(gt.finals)) * 8
	return int64(len(gt.Keys))*per + 1024
}

// ToTable materializes the group table as a storage table (used as a
// materialized aggregate view for query rewriting, §2's V1). State value
// columns are named by stateName.
func (gt *GroupTable) ToTable(name string, stateName func(i int, s *CachedState) string) *storage.Table {
	t := storage.NewTable(name)
	for _, kc := range gt.KeyCols {
		t.AddColumn(kc)
	}
	for i, s := range gt.states {
		col := storage.NewColumn(stateName(i, s), storage.KindFloat)
		col.F = append(col.F, s.Vals...)
		t.AddColumn(col)
	}
	return t
}

// Stats counts cache activity. It is a plain snapshot struct; the live
// counters inside Cache are atomics.
type Stats struct {
	Lookups    int64 // state lookup attempts
	ExactHits  int64 // exact state-key hits
	SharedHits int64 // hits via Theorem 4.1 rewritings
	SignHits   int64 // hits via §5.3 sign-split companions
	Misses     int64
	Evictions  int64
	// FinalHits counts memoized terminating-function columns served.
	FinalHits int64
	// Corruptions counts cached states dropped because their integrity
	// checksum no longer matched (each is a degradation event: the query
	// fell back to recomputation instead of failing).
	Corruptions int64
	// Bytes and Entries are the cache's size: the accounted bytes of its
	// entries (within the budget unless one entry alone exceeds it) and
	// their number.
	Bytes, Entries int64
}

// HitKind classifies how a lookup was served.
type HitKind int

const (
	// HitNone: the lookup missed.
	HitNone HitKind = iota
	// HitExact: the exact state key was cached.
	HitExact
	// HitShared: served through a Theorem 4.1 rewriting.
	HitShared
	// HitSign: reconstructed from §5.3 sign-split companions.
	HitSign
)

func (k HitKind) String() string {
	switch k {
	case HitExact:
		return "exact"
	case HitShared:
		return "shared"
	case HitSign:
		return "sign"
	}
	return "miss"
}

// Cache is the session-wide state cache: one fingerprint → entry map under
// one LRU order and one byte budget, safe for concurrent use.
type Cache struct {
	// mu guards entries, lru and bytes, and nothing else: it is held to
	// fetch, install or unlink an entry, never to read one.
	mu       sync.Mutex
	entries  map[string]*list.Element // Value is the *GroupTable
	lru      list.List                // most recently used at the front
	bytes    int64
	maxBytes int64

	lookups     atomic.Int64
	exactHits   atomic.Int64
	sharedHits  atomic.Int64
	signHits    atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	corruptions atomic.Int64
	finalHits   atomic.Int64

	// events records degradation events until drained by the session.
	// Guarded by evMu, which is never held together with mu.
	evMu   sync.Mutex
	events []string
}

// New creates a cache with the given byte budget (≤0 means 256 MiB).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &Cache{entries: map[string]*list.Element{}, maxBytes: maxBytes}
}

// Stats returns a snapshot of the counters and the cache's size: not a
// consistent cut under concurrent traffic (each counter is read on its
// own), but exact at quiescence.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes, entries := c.bytes, int64(len(c.entries))
	c.mu.Unlock()
	return Stats{
		Lookups:     c.lookups.Load(),
		ExactHits:   c.exactHits.Load(),
		SharedHits:  c.sharedHits.Load(),
		SignHits:    c.signHits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		FinalHits:   c.finalHits.Load(),
		Corruptions: c.corruptions.Load(),
		Bytes:       bytes,
		Entries:     entries,
	}
}

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	c.lookups.Store(0)
	c.exactHits.Store(0)
	c.sharedHits.Store(0)
	c.signHits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.corruptions.Store(0)
	c.finalHits.Store(0)
}

// entry returns the table cached under fp (nil when none), making it the
// most recently used when touch is set.
func (c *Cache) entry(fp string, touch bool) *GroupTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return nil
	}
	if touch {
		c.lru.MoveToFront(el)
	}
	return el.Value.(*GroupTable)
}

// install caches next, as the most recently used entry, in place of prev
// (nil: no entry) provided prev is still what is cached under their
// fingerprint, then evicts down to the budget. Reports whether it did.
func (c *Cache) install(prev, next *GroupTable) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[next.Fingerprint]
	switch {
	case !ok && prev == nil:
		c.entries[next.Fingerprint] = c.lru.PushFront(next)
	case ok && el.Value == prev:
		c.bytes -= prev.bytes()
		el.Value = next
		c.lru.MoveToFront(el)
	default:
		return false
	}
	c.bytes += next.bytes()
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		c.unlink(c.lru.Back())
		c.evictions.Add(1)
	}
	return true
}

// unlink drops one entry. Caller holds mu.
func (c *Cache) unlink(el *list.Element) {
	gt := c.lru.Remove(el).(*GroupTable)
	delete(c.entries, gt.Fingerprint)
	c.bytes -= gt.bytes()
}

// update swaps edit(cur) in for cur, the table cached under fp (nil when
// none). edit builds a successor without writing cur, or returns nil to
// leave the entry be; it runs again when another writer got there first.
// It returns the table installed, nil when edit declined.
func (c *Cache) update(fp string, edit func(cur *GroupTable) *GroupTable) *GroupTable {
	for {
		cur := c.entry(fp, false)
		next := edit(cur)
		if next == nil || c.install(cur, next) {
			return next
		}
	}
}

// Put inserts or merges a group table; existing states under the same
// fingerprint are kept (states accumulate across queries). Incoming
// state vectors are realigned to the existing entry's group order; if
// the group sets differ (the underlying data changed), the incoming
// table replaces the entry. The caller must not modify gt after Put. It
// returns the table now cached under the fingerprint: gt itself when it
// was inserted or replaced the entry, the merged successor otherwise.
func (c *Cache) Put(gt *GroupTable) *GroupTable {
	return c.update(gt.Fingerprint, func(cur *GroupTable) *GroupTable {
		if cur == nil {
			return gt
		}
		return cur.merge(gt)
	})
}

// Remove deletes the entry under a fingerprint (targeted invalidation:
// the ingestion path drops entries it cannot delta-maintain and, when no
// reader has a snapshot pinned, entries of superseded versions).
func (c *Cache) Remove(fp string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		c.unlink(el)
	}
}

// Snapshot lists the cached entries, most recently used first. Entries
// are immutable, so the list stays a consistent picture of what it holds
// while the cache moves on.
func (c *Cache) Snapshot() []*GroupTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*GroupTable, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*GroupTable))
	}
	return out
}

// MergeDelta is the delta-merge entry point of incremental ingestion: it
// folds one append batch's per-group state values into a prior entry,
// producing the successor entry under the post-append fingerprint. The
// union group set keeps the prior entry's group order first (so existing
// consumers see a stable prefix) with groups new in the delta appended in
// delta order; a prior group absent from the delta
// merges the state's identity (i.e. stays unchanged), and a brand-new
// group starts from the identity. Integrity checksums are recomputed by
// AddState over the merged vectors.
//
// deltaVals maps state key → per-group values aligned with deltaKeys;
// every state in prev must be present (a missing state means the delta
// run did not cover the entry, and the whole entry must be invalidated
// instead). deltaPositive maps state key → whether every delta base
// value was provably positive; it is ANDed into PositiveInput.
func MergeDelta(prev *GroupTable, newFP string, deltaKeys []GroupKey, deltaKeyCols []*storage.Column,
	deltaVals map[string][]float64, deltaPositive map[string]bool, maint any) (*GroupTable, error) {

	if len(deltaKeyCols) != len(prev.KeyCols) {
		return nil, fmt.Errorf("merge delta: %d key columns, want %d", len(deltaKeyCols), len(prev.KeyCols))
	}
	// An append rarely brings a group the entry has not seen. Then the
	// successor's group set is the prior entry's, and it shares that
	// entry's keys, key columns and index instead of copying them: all
	// three are immutable, and together they outweigh the state values.
	union, keyCols, pos := prev.Keys, prev.KeyCols, prev.index
	var newRows []int // delta row index of each brand-new group, in delta order
	for i, k := range deltaKeys {
		if _, ok := pos[k]; !ok {
			newRows = append(newRows, i)
		}
	}
	if len(newRows) > 0 {
		union = append([]GroupKey(nil), prev.Keys...)
		for _, di := range newRows {
			union = append(union, deltaKeys[di])
		}
		pos = keyIndex(union)
		// Key columns: prior rows copied, then the new groups' key rows
		// from the delta run.
		keyCols = make([]*storage.Column, len(prev.KeyCols))
		for ci, kc := range prev.KeyCols {
			nc := storage.NewColumn(kc.Name, kc.Kind)
			for g := 0; g < len(prev.Keys); g++ {
				appendValue(nc, kc, g)
			}
			for _, di := range newRows {
				appendValue(nc, deltaKeyCols[ci], di)
			}
			keyCols[ci] = nc
		}
	}

	gt := newGroupTable(newFP, prev.KeyNames, union, keyCols, pos)
	gt.Maint = maint
	for _, cs := range prev.states {
		key := cs.State.Key()
		dv, ok := deltaVals[key]
		if !ok {
			return nil, fmt.Errorf("merge delta: state %s missing from delta run", key)
		}
		if len(dv) != len(deltaKeys) {
			return nil, fmt.Errorf("merge delta: state %s: %d delta values for %d delta groups", key, len(dv), len(deltaKeys))
		}
		// Scatter the delta into union order with identity padding, then
		// one ⊕-merge per group (canonical.State.MergeVals).
		acc := make([]float64, len(union))
		id := cs.State.MergeIdentity()
		copy(acc, cs.Vals)
		for i := len(prev.Keys); i < len(union); i++ {
			acc[i] = id
		}
		aligned := make([]float64, len(union))
		for i := range aligned {
			aligned[i] = id
		}
		for i, k := range deltaKeys {
			aligned[pos[k]] = dv[i]
		}
		merged := cs.State.MergeVals(acc, aligned)
		if err := gt.AddState(&CachedState{
			State:         cs.State,
			Vals:          merged,
			PositiveInput: cs.PositiveInput && deltaPositive[key],
		}); err != nil {
			return nil, err
		}
	}
	return gt, nil
}

// appendValue appends src's row i onto dst (same kind).
func appendValue(dst, src *storage.Column, i int) {
	switch src.Kind {
	case storage.KindFloat:
		dst.AppendFloat(src.F[i])
	case storage.KindInt:
		dst.AppendInt(src.I[i])
	default:
		dst.AppendString(src.StringAt(i))
	}
}

// AddEvent records a degradation event (a corruption fallback, an
// injected fault, an entry or view the ingestion path invalidated),
// drained into the next query's Result.Events.
func (c *Cache) AddEvent(ev string) {
	c.evMu.Lock()
	c.events = append(c.events, ev)
	c.evMu.Unlock()
}

// DrainEvents returns and clears accumulated degradation events.
func (c *Cache) DrainEvents() []string {
	c.evMu.Lock()
	defer c.evMu.Unlock()
	ev := c.events
	c.events = nil
	return ev
}

// CheckInvariants verifies the cache's structural invariants — byte
// accounting matches entry contents, never goes negative and exceeds the
// budget only while a single entry is cached, the LRU list mirrors the
// entry map, every cached state is internally consistent, and counters
// balance (lookups = hits + misses). The counter-balance check is only
// meaningful at quiescence — an in-flight lookup has incremented Lookups
// but not yet its outcome — so call it when no lookups are running (the
// structural checks are valid at any time). Used by the concurrency
// property tests.
func (c *Cache) CheckInvariants() error {
	if err := c.checkEntries(); err != nil {
		return err
	}
	st := c.Stats()
	for _, v := range []int64{st.Lookups, st.ExactHits, st.SharedHits, st.SignHits, st.Misses, st.Evictions, st.Corruptions} {
		if v < 0 {
			return fmt.Errorf("negative counter in %+v", st)
		}
	}
	if st.Lookups != st.ExactHits+st.SharedHits+st.SignHits+st.Misses {
		return fmt.Errorf("lost stats increments: %d lookups vs %d outcomes (%+v)",
			st.Lookups, st.ExactHits+st.SharedHits+st.SignHits+st.Misses, st)
	}
	return nil
}

// checkEntries is CheckInvariants' structural half, under mu.
func (c *Cache) checkEntries() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for fp, el := range c.entries {
		gt := el.Value.(*GroupTable)
		sum += gt.bytes()
		if len(gt.states) != len(gt.byKey) {
			return fmt.Errorf("entry %s: %d states but %d keys", fp, len(gt.states), len(gt.byKey))
		}
		for key, i := range gt.byKey {
			if i < 0 || i >= len(gt.states) {
				return fmt.Errorf("entry %s: key %s maps to out-of-range index %d", fp, key, i)
			}
			if gt.states[i].State.Key() != key {
				return fmt.Errorf("entry %s: key %s maps to state %s", fp, key, gt.states[i].State.Key())
			}
		}
		for _, s := range gt.states {
			if len(s.Vals) != len(gt.Keys) {
				return fmt.Errorf("entry %s state %s: %d values for %d groups", fp, s.State.Key(), len(s.Vals), len(gt.Keys))
			}
		}
		for _, f := range gt.finals {
			if len(f.vals) != len(gt.Keys) {
				return fmt.Errorf("entry %s final %s: %d values for %d groups", fp, f.t, len(f.vals), len(gt.Keys))
			}
		}
	}
	if c.bytes < 0 {
		return fmt.Errorf("negative byte accounting %d", c.bytes)
	}
	if c.bytes != sum {
		return fmt.Errorf("accounted %d bytes, entries hold %d", c.bytes, sum)
	}
	if c.bytes > c.maxBytes && len(c.entries) > 1 {
		return fmt.Errorf("%d bytes over a budget of %d with %d entries to evict", c.bytes, c.maxBytes, len(c.entries))
	}
	if c.lru.Len() != len(c.entries) {
		return fmt.Errorf("%d LRU slots for %d entries", c.lru.Len(), len(c.entries))
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if fp := el.Value.(*GroupTable).Fingerprint; c.entries[fp] != el {
			return fmt.Errorf("LRU slot for %s is not the entry cached there", fp)
		}
	}
	return nil
}

// verifyState checksums one cached column. A variable only so the cache
// tests can count the columns a read verifies: each read must checksum
// only the states it serves.
var verifyState = (*CachedState).verify

// verifier is one read's memo of the columns it has checksummed. A state
// is verified at the moment it would serve — an exact hit's source, a
// Theorem 4.1 candidate that shareDetail accepted, each of a sign-split
// hit's companions — and at most once per read; a state that fails is
// passed over for the rest of the read, as if it were not cached. The
// memo is two short slices, not a map, and good starts in buf: a read
// serves a few dozen states at most, and a lookup is too cheap to pay for
// growing a slice.
type verifier struct {
	good, bad []*CachedState
	buf       [24]*CachedState
}

// healthy reports whether cs still matches its checksum, verifying it on
// first use in this read.
func (v *verifier) healthy(cs *CachedState) bool {
	if slices.Contains(v.good, cs) {
		return true
	}
	if slices.Contains(v.bad, cs) {
		return false
	}
	if !verifyState(cs) {
		v.bad = append(v.bad, cs)
		return false
	}
	if v.good == nil {
		v.good = v.buf[:0]
	}
	v.good = append(v.good, cs)
	return true
}

// allHealthy reports whether every state in states is healthy, verifying
// them in order up to the first that fails.
func (v *verifier) allHealthy(states []*CachedState) bool {
	for _, cs := range states {
		if !v.healthy(cs) {
			return false
		}
	}
	return true
}

// dropCorrupt swaps in a successor of the entry under fp without the
// states and finals a read found corrupt (and no writer has replaced since),
// recording a degradation event for each: the next lookup recomputes it.
func (c *Cache) dropCorrupt(fp string, bad []*CachedState, badFinals []*final) {
	if len(bad)+len(badFinals) == 0 {
		return
	}
	var events []string
	c.update(fp, func(cur *GroupTable) *GroupTable {
		events = events[:0]
		if cur == nil {
			return nil
		}
		next := cur.successor()
		for _, cs := range bad {
			key := cs.State.Key()
			if live, ok := next.Exact(key); ok && live == cs {
				next.dropState(key)
				events = append(events, fmt.Sprintf("cache: state %s under %s failed integrity check; dropped, recomputing from base data", key, fp))
			}
		}
		for _, f := range badFinals {
			if at := slices.Index(next.finals, f); at >= 0 {
				next.finals = slices.Delete(next.finals, at, at+1)
				events = append(events, fmt.Sprintf("cache: memoized %s under %s failed integrity check; dropped, recomputing from its states", f.t, fp))
			}
		}
		if len(events) == 0 {
			return nil
		}
		return next
	})
	c.corruptions.Add(int64(len(events)))
	for _, ev := range events {
		c.AddEvent(ev)
	}
}

// shareDetail is the direct (verified) Theorem 4.1 decision procedure —
// the authority for every shared hit. A variable only so the cache tests
// can count calls: each candidate must get exactly one direct decision.
var shareDetail = sharing.ShareDetail

// resolution is the cache's one sharing decision for a wanted state
// against a group table: how it would be served, from what, and how to
// compute the values. It is pure — deciding touches no LRU order,
// counter or entry — so Probe and ProbeFinal can render it and LookupAll
// serve it, and they cannot disagree.
type resolution struct {
	kind HitKind
	// src is the cached state serving an exact or shared hit.
	src *CachedState
	// share is the Theorem 4.1 decision behind a shared hit and rewrite
	// its compiled r, applied per group to src.Vals.
	share   sharing.Decision
	rewrite func(float64) float64
	// companions are the §5.3 states a sign-split hit reconstructs from,
	// and reconstruct the deferred reconstruction.
	companions  []*CachedState
	reconstruct func() []float64
}

// vals computes the wanted state's per-group values (nil on a miss). An
// exact hit returns the cached slice itself; a shared or sign-split hit
// returns a fresh slice that nothing in the cache keeps.
func (r *resolution) vals() []float64 {
	switch r.kind {
	case HitExact:
		return r.src.Vals
	case HitShared:
		return applyScalar(r.rewrite, r.src.Vals)
	case HitSign:
		return r.reconstruct()
	}
	return nil
}

// sum is the checksum of the values vals returned for this resolution:
// the one a final over the wanted state was keyed on at StoreFinal. An
// exact hit reuses its source's stamp; a computed state sums its values.
func (r *resolution) sum(vals []float64) uint64 {
	if r.kind == HitExact {
		return r.src.checksum
	}
	return ChecksumVals(vals)
}

// resolve decides how want is served from gt, in the fixed order exact
// match → Theorem 4.1 sharing (each eligible candidate gets exactly one
// direct decision; the first that shares and is healthy wins) → §5.3
// sign-split reconstruction. v verifies a state only once it would serve:
// a candidate is checksummed after shareDetail accepts it, so a read pays
// for the columns it serves, not for the entry. A state that fails is
// passed over exactly as if it had never been stored.
func resolve(gt *GroupTable, want canonical.State, positiveData bool, v *verifier) resolution {
	if cs, ok := gt.Exact(want.Key()); ok && v.healthy(cs) {
		return resolution{kind: HitExact, src: cs}
	}
	for _, cand := range gt.states {
		if cand.State.Op == canonical.OpCount && want.Op != canonical.OpCount {
			continue
		}
		pos := positiveData || cand.PositiveInput
		d, ok := shareDetail(want, cand.State, pos)
		if !ok {
			continue
		}
		fn, err := d.R.Compile()
		if err != nil || !v.healthy(cand) {
			continue
		}
		return resolution{kind: HitShared, src: cand, share: d, rewrite: fn}
	}
	if rec, companions, ok := signSplit(gt, want); ok && v.allHealthy(companions) {
		return resolution{kind: HitSign, companions: companions, reconstruct: rec}
	}
	return resolution{}
}

// Lookups is the outcome of LookupAll: the fingerprint's entry, each
// wanted state's values, and the lookups tallied by how they were served.
type Lookups struct {
	// Entry is the group table cached under the fingerprint (nil when
	// there is none): the group structure cached values are ordered by.
	// It is immutable, so it can be read without any lock.
	Entry *GroupTable
	// Vals is index-aligned with the wanted states; nil marks a state the
	// caller must compute. A non-nil vector is ordered by Entry's groups:
	// an exact hit's is the cached column itself, shared and read-only; a
	// shared or sign-split hit's is r(s), computed for this lookup alone.
	Vals [][]float64
	// Exact, Shared, Sign and Misses count the lookups by HitKind.
	Exact, Shared, Sign, Misses int
	// Verified is the number of state columns the lookup checksummed: only
	// those it would serve, each at most once.
	Verified int
	// Finals is index-aligned with the wanted finals: the memoized column,
	// ordered by Entry's groups and read-only like Vals, or nil where none
	// was computed from exactly the state values this lookup served.
	Finals [][]float64
}

// FinalWant names a memoized terminating-function column for LookupAll:
// the function (canonical.Form.HardTKey) and the positions, in the wanted
// states, of the states it reads, in call order.
type FinalWant struct {
	T   string
	Src []int
}

// LookupAll is the lookup half of the sharing protocol every consumer
// runs (session queries, batches, windowed queries): it fetches the
// fingerprint's entry once and resolves every wanted state against that
// same entry — exact match, Theorem 4.1 sharing, or §5.3 sign-split
// reconstruction. The cache's lock is held only for the fetch; the entry
// is immutable, so resolving, verifying and applying r run outside it,
// and a concurrent Put or Remove can never leave a caller holding values
// without the entry that orders them. A state is checksummed only when it
// is about to serve, at most once per call, so a hit costs O(wanted
// states), not O(entry); one that fails its checksum is passed over as if
// it were not cached, then dropped with a degradation event (callers
// recompute rather than fail). A corrupt column no lookup wants stays
// until one does. A lookup never writes the entry otherwise: a shared or
// sign-split state's r(s) is computed into the result and kept nowhere,
// so a repeat is served the same way, with the same bits. The wanted
// finals are read from that same entry; one is served only when every
// state it reads was served here with the checksum recorded at StoreFinal
// (ChecksumVals of the values served).
//
// positive is index-aligned with want. usable, when non-nil, vets a hit's
// values — a rejected hit still counts by its kind but is left for the
// caller to compute. guard, when non-nil, wraps the entry fetch and each
// state's resolution so a caller can contain cache faults per lookup (a
// lookup that panics is then simply not served, and counts as a miss).
// Neither runs under the cache's lock.
func (c *Cache) LookupAll(fp string, want []canonical.State, positive []bool, finals []FinalWant,
	usable func([]float64) bool, guard func(stage string, f func())) Lookups {

	if guard == nil {
		guard = func(_ string, f func()) { f() }
	}
	out := Lookups{Vals: make([][]float64, len(want)), Finals: make([][]float64, len(finals))}
	// sums[i] is the checksum of the values served for want[i], kept only
	// for a lookup that wants finals.
	var sums []uint64
	if len(finals) > 0 {
		sums = make([]uint64, len(want))
	}
	var v verifier
	guard("entry lookup", func() { out.Entry = c.entry(fp, true) })
	for i := range want {
		guard("state lookup", func() {
			if err := faultinject.Hit(faultinject.PointCacheGet); err != nil {
				c.AddEvent("cache: injected fault on get, treated as miss: " + err.Error())
				return
			}
			if out.Entry == nil {
				return
			}
			res := resolve(out.Entry, want[i], positive[i], &v)
			switch res.kind {
			case HitNone:
				return
			case HitExact:
				out.Exact++
			case HitShared:
				out.Shared++
			case HitSign:
				out.Sign++
			}
			vals := res.vals()
			if usable == nil || usable(vals) {
				out.Vals[i] = vals
				if sums != nil {
					sums[i] = res.sum(vals)
				}
			}
		})
	}
	out.Verified = len(v.good) + len(v.bad)
	var finalHits int64
	var badFinals []*final
	for fi, fw := range finals {
		guard("final lookup", func() {
			if out.Entry == nil {
				return
			}
			src := make([]uint64, len(fw.Src))
			for j, i := range fw.Src {
				if out.Vals[i] == nil {
					return
				}
				src[j] = sums[i]
			}
			at := out.Entry.final(fw.T, src)
			if at < 0 {
				return
			}
			// Verified when about to be served, like a state: a lookup
			// that wants no final pays nothing for the ones stored.
			if f := out.Entry.finals[at]; ChecksumVals(f.vals) != f.checksum {
				badFinals = append(badFinals, f)
			} else if usable == nil || usable(f.vals) {
				out.Finals[fi] = f.vals
				finalHits++
			}
		})
	}
	c.dropCorrupt(fp, v.bad, badFinals)
	out.Misses = len(want) - out.Exact - out.Shared - out.Sign
	c.lookups.Add(int64(len(want)))
	c.exactHits.Add(int64(out.Exact))
	c.sharedHits.Add(int64(out.Shared))
	c.signHits.Add(int64(out.Sign))
	c.misses.Add(int64(out.Misses))
	c.finalHits.Add(finalHits)
	return out
}

// StoreAll is the store half: it adds the freshly computed states to gt
// (a table the caller just built and still owns) and Puts it, returning
// the table they are now cached in (see Put) and the number of states
// stored under gt — nil and 0, and no Put, when there was nothing to
// store. A state whose vector does not fit the table is skipped: a failed
// insert costs future sharing, never the query.
func (c *Cache) StoreAll(gt *GroupTable, fresh []*CachedState) (*GroupTable, int) {
	for _, cs := range fresh {
		_ = gt.AddState(cs)
	}
	n := gt.NumStates()
	if n == 0 {
		return nil, 0
	}
	return c.Put(gt), n
}

// StoreFinal memoizes the output column of the hardcoded terminating
// function t beside the states it was computed from: vals holds one value
// per group of entry, in entry order, and srcSums the ChecksumVals of the
// state columns it read, in call order (a FinalWant's Src order). It
// stores into entry, or the successor a concurrent merge or final swapped
// in since (it shares entry's keys, so its groups are in vals' order), and
// returns the table it swaps in, for a caller's next StoreFinal; nil when
// the entry was evicted or replaced. A final rides the byte budget.
func (c *Cache) StoreFinal(entry *GroupTable, t string, vals []float64, srcSums []uint64) *GroupTable {
	if len(vals) != len(entry.Keys) {
		return nil
	}
	f := &final{t: t, srcSums: srcSums, vals: vals, checksum: ChecksumVals(vals)}
	return c.update(entry.Fingerprint, func(cur *GroupTable) *GroupTable {
		if cur == nil || len(cur.Keys) != len(vals) || (len(vals) > 0 && &cur.Keys[0] != &entry.Keys[0]) {
			return nil
		}
		next := cur.successor()
		if at := next.final(t, srcSums); at >= 0 {
			next.finals[at] = f
		} else {
			next.finals = append(next.finals, f)
		}
		return next
	})
}

// ProbeResult is the read-only provenance record of how a state lookup
// would be served; see Cache.Probe. EXPLAIN renders it.
type ProbeResult struct {
	// Kind classifies the would-be outcome (exact/shared/sign/miss).
	Kind HitKind
	// Matched is the key of the cached state that serves the hit (the
	// sharing source for a shared hit); empty on a miss.
	Matched string
	// Rewrite is the scalar rewriting r with want = r∘matched, rendered
	// over "s"; set only for shared hits (exact hits are identity).
	Rewrite string
	// Conditions are the parameter conditions the sharing decision
	// checked, rendered "expr = value"; empty means unconditional
	// ("strong") sharing.
	Conditions []string
	// PositiveOnly reports that the rewriting is sound only over
	// positive data (satisfied here by column stats or a positive-input
	// cached source).
	PositiveOnly bool
	// Companions are the §5.3 sign-split companion state keys a HitSign
	// reconstruction reads.
	Companions []string
}

// Probe reports how LookupAll would serve a state under a fingerprint,
// with full provenance and without observable side effects: no LRU
// touch, no stats counters, and corrupted states are passed over rather
// than dropped. It renders the same resolve decision LookupAll serves,
// verifying the same columns, so EXPLAIN and batch planning predict
// serving by construction and pay only for what would serve.
func (c *Cache) Probe(fp string, want canonical.State, positiveData bool) ProbeResult {
	gt := c.entry(fp, false)
	if gt == nil {
		return ProbeResult{}
	}
	var v verifier
	res := resolve(gt, want, positiveData, &v)
	out := ProbeResult{Kind: res.kind}
	switch res.kind {
	case HitExact:
		out.Matched = want.Key()
	case HitShared:
		out.Matched = res.src.State.Key()
		out.Rewrite = res.share.R.Render("s")
		for _, cond := range res.share.Conds {
			out.Conditions = append(out.Conditions, fmt.Sprintf("%v = %v", cond.C, cond.Want))
		}
		out.PositiveOnly = res.share.PositiveOnly
	case HitSign:
		for _, cs := range res.companions {
			out.Companions = append(out.Companions, cs.State.Key())
		}
	}
	return out
}

// Candidates lists the healthy state keys cached under a fingerprint, in
// entry order, and reports whether an entry exists: what a missed lookup
// had to work with. It verifies every column of the entry, so only
// EXPLAIN's miss provenance calls it; like Probe it has no observable
// side effect.
func (c *Cache) Candidates(fp string) ([]string, bool) {
	gt := c.entry(fp, false)
	if gt == nil {
		return nil, false
	}
	var keys []string
	for _, s := range gt.states {
		if verifyState(s) {
			keys = append(keys, s.State.Key())
		}
	}
	return keys, true
}

// ProbeFinal reports whether LookupAll(fp, want, positive, ...) would serve
// the wanted final, with Probe's guarantee of no observable side effect.
// Its source states are decided by the same resolve and verified the same
// way as in LookupAll, so a source served exactly, through a sharing
// rewriting or by sign-split reconstruction counts alike.
func (c *Cache) ProbeFinal(fp string, want []canonical.State, positive []bool, fw FinalWant) bool {
	gt := c.entry(fp, false)
	if gt == nil {
		return false
	}
	var v verifier
	sums := make([]uint64, len(fw.Src))
	for j, i := range fw.Src {
		res := resolve(gt, want[i], positive[i], &v)
		if res.kind == HitNone {
			return false
		}
		sums[j] = res.sum(res.vals())
	}
	at := gt.final(fw.T, sums)
	return at >= 0 && ChecksumVals(gt.finals[at].vals) == gt.finals[at].checksum
}

func applyScalar(fn func(float64) float64, in []float64) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = fn(v)
	}
	return out
}

// SignSplitStates returns the companion states that must be cached for a
// log/product-family state over a base b that is not provably positive:
// Σ ln|b| and Π sgn(b) (the paper's X̂ translation).
func SignSplitStates(base expr.Node) (lnAbs, sgnProd canonical.State) {
	absBase := expr.Simplify(&expr.Call{Name: "abs", Args: []expr.Node{base}})
	sgnBase := expr.Simplify(&expr.Call{Name: "sgn", Args: []expr.Node{base}})
	lnAbs = canonical.State{
		Op:   canonical.OpSum,
		F:    scalar.NewChain(scalar.LogP(scalar.E)),
		Base: absBase,
	}
	sgnProd = canonical.State{
		Op:   canonical.OpProd,
		F:    scalar.IdentityChain(),
		Base: sgnBase,
	}
	return lnAbs, sgnProd
}

// signSplit decides whether want is reconstructible from the sign-split
// companions cached in gt, returning the deferred reconstruction and the
// companions it reads. It reads no values: the caller verifies the
// companions before serving.
func signSplit(gt *GroupTable, want canonical.State) (func() []float64, []*CachedState, bool) {
	if (want.Op != canonical.OpProd && want.Op != canonical.OpSum) || want.Base == nil {
		return nil, nil, false
	}
	lnAbs, sgnProd := SignSplitStates(want.Base)
	ln, ok := gt.Exact(lnAbs.Key())
	if !ok {
		return nil, nil, false
	}
	f := want.F.NormalizeReal()
	switch want.Op {
	case canonical.OpProd:
		// Π b = sgn-product · exp(Σ ln|b|).
		sg, ok := gt.Exact(sgnProd.Key())
		if ok && f.IsIdentity() {
			return func() []float64 {
				out := make([]float64, len(ln.Vals))
				for i := range out {
					out[i] = sg.Vals[i] * math.Exp(ln.Vals[i])
				}
				return out
			}, []*CachedState{ln, sg}, true
		}
	case canonical.OpSum:
		// Σ ln(b²) = 2·Σ ln|b| and other even-log shapes: f = ln ∘ b^k
		// with k even means |·| is implicit.
		if len(f.Prims) == 2 &&
			f.Prims[0].Kind == scalar.KPower &&
			f.Prims[1].Kind == scalar.KLog {
			if k, ok := coefOf(f.Prims[0]); ok && k == math.Trunc(k) && int64(k)%2 == 0 {
				return func() []float64 {
					out := make([]float64, len(ln.Vals))
					for i := range out {
						out[i] = k * ln.Vals[i]
					}
					return out
				}, []*CachedState{ln}, true
			}
		}
	}
	return nil, nil, false
}

func coefOf(p scalar.Prim) (float64, bool) {
	v, err := scalar.CEval(p.A, nil)
	return v, err == nil
}

// CorruptEntryForTest flips a bit in every cached state's (and memoized
// final's) values under a fingerprint without updating checksums — a
// chaos/testing aid for the integrity path. An empty fingerprint corrupts
// every entry. Naming state keys corrupts only those states and no final.
// It returns the number of states corrupted; 0 means the fingerprint is
// absent or holds no such states (or only empty vectors). Like any change
// to a cached entry it swaps in a successor holding corrupted copies, so
// tables and value slices handed out earlier stay as they were.
func (c *Cache) CorruptEntryForTest(fp string, keys ...string) int {
	flip := func(vals []float64) []float64 {
		bad := append([]float64(nil), vals...)
		bad[0] = math.Float64frombits(math.Float64bits(bad[0]) ^ 1)
		return bad
	}
	n := 0
	for _, gt := range c.Snapshot() {
		if fp != "" && gt.Fingerprint != fp {
			continue
		}
		hit := 0
		c.update(gt.Fingerprint, func(cur *GroupTable) *GroupTable {
			hit = 0
			if cur == nil {
				return nil
			}
			next := cur.successor()
			for i, s := range next.states {
				if len(s.Vals) == 0 || (len(keys) > 0 && !slices.Contains(keys, s.State.Key())) {
					continue
				}
				next.states[i] = &CachedState{
					State: s.State, Vals: flip(s.Vals),
					PositiveInput: s.PositiveInput, checksum: s.checksum,
				}
				hit++
			}
			for i, fin := range next.finals {
				if len(keys) == 0 && len(fin.vals) > 0 {
					bad := *fin
					bad.vals = flip(fin.vals)
					next.finals[i] = &bad
				}
			}
			return next
		})
		n += hit
	}
	return n
}
