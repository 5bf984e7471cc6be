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
// Entries are striped across shards by fingerprint hash; each shard has
// its own mutex, LRU order and byte budget, so queries over different
// data parts never contend on a lock. Counters are atomics, readable
// without any lock.
//
// The locking contract for GroupTable is split by field:
//
//   - Fingerprint, KeyNames, Keys, KeyCols and the key index are immutable
//     after NewGroupTable, so a *GroupTable returned in Lookups.Entry can
//     be read (IndexOf, NumGroups, Keys, ...) without holding any lock.
//   - states/byKey are mutated only by cache methods holding the owning
//     shard's mutex. Callers outside this package must not call AddState
//     on a table that has been Put (build a fresh table and Put it).
//   - A CachedState's Vals slice is never written after insertion; value
//     slices returned by LookupAll are shared and read-only.
//   - finals (memoized terminating-function columns) follow the states
//     rule: the list changes only under the shard's mutex, and a stored
//     final's values are complete and never written again.
package cache

import (
	"fmt"
	"hash/fnv"
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

// GroupTable is the cached content for one data fingerprint.
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
	// Set before Put and treated as immutable afterwards.
	Maint  any
	states []*CachedState
	byKey  map[string]int
	index  map[GroupKey]int
	finals []final
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
// Like NumStates it reads unlocked: call it on a quiescent cache.
func (gt *GroupTable) NumFinals() int { return len(gt.finals) }

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
	return slices.IndexFunc(gt.finals, func(f final) bool { return f.t == t && slices.Equal(f.srcSums, srcSums) })
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

// DefaultShards is the stripe count of a cache built with New. 32 shards
// keep the per-shard mutex essentially uncontended for any realistic
// client count (lock hold times are O(#groups) at worst) while the
// per-shard LRU budget (total/32) still holds many group tables.
const DefaultShards = 32

// shard is one stripe: a fingerprint→GroupTable map with its own lock,
// LRU order and byte budget.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*GroupTable
	order    []string // LRU order, most recent last
	maxBytes int64
	curBytes int64
}

// Cache is the session-wide state cache, striped by fingerprint with LRU
// eviction per shard. All methods are safe for concurrent use.
type Cache struct {
	shards []*shard

	lookups     atomic.Int64
	exactHits   atomic.Int64
	sharedHits  atomic.Int64
	signHits    atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	corruptions atomic.Int64
	finalHits   atomic.Int64

	// events records degradation events (corruption fallbacks, injected
	// faults) until drained by the session. Guarded by evMu, which is
	// only ever taken after (or without) a shard mutex — never the
	// reverse — so the lock order shard.mu → evMu is acyclic.
	evMu   sync.Mutex
	events []string
}

// New creates a cache with the given byte budget (≤0 means 256 MiB) and
// the default stripe count.
func New(maxBytes int64) *Cache {
	return newSharded(maxBytes, 0)
}

// newSharded creates a cache with an explicit stripe count (≤0 means
// DefaultShards). The byte budget is divided evenly across shards.
func newSharded(maxBytes int64, shards int) *Cache {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	per := maxBytes / int64(shards)
	if per < 4096 {
		per = 4096
	}
	c := &Cache{shards: make([]*shard, shards)}
	for i := range c.shards {
		c.shards[i] = &shard{entries: map[string]*GroupTable{}, maxBytes: per}
	}
	return c
}

// shardFor maps a fingerprint to its stripe.
func (c *Cache) shardFor(fp string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(fp))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Stats returns a snapshot of the counters. The snapshot is not a
// consistent cut across counters under concurrent traffic (each counter
// is read atomically on its own), but quiescent reads are exact.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:     c.lookups.Load(),
		ExactHits:   c.exactHits.Load(),
		SharedHits:  c.sharedHits.Load(),
		SignHits:    c.signHits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		FinalHits:   c.finalHits.Load(),
		Corruptions: c.corruptions.Load(),
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

// Put inserts or merges a group table; existing states under the same
// fingerprint are kept (states accumulate across queries). Incoming
// state vectors are realigned to the existing entry's group order; if
// the group sets differ (the underlying data changed), the incoming
// table replaces the entry. The caller must not modify gt after Put. It
// returns the table now cached under the fingerprint: gt itself when it
// was inserted or replaced the entry, the surviving entry when merged.
func (c *Cache) Put(gt *GroupTable) *GroupTable {
	sh := c.shardFor(gt.Fingerprint)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev, ok := sh.entries[gt.Fingerprint]; ok {
		sh.curBytes -= prev.bytes()
		replaced := false
		for _, s := range gt.states {
			aligned, ok := prev.Align(gt.Keys, s.Vals)
			if !ok {
				replaced = true
				break
			}
			_ = prev.AddState(&CachedState{State: s.State, Vals: aligned, PositiveInput: s.PositiveInput})
		}
		if replaced {
			sh.entries[gt.Fingerprint] = gt
			sh.curBytes += gt.bytes()
		} else {
			if gt.Maint != nil {
				prev.Maint = gt.Maint
			}
			sh.curBytes += prev.bytes()
			gt = prev
		}
		sh.touch(gt.Fingerprint)
		c.evict(sh)
		return gt
	}
	sh.entries[gt.Fingerprint] = gt
	sh.order = append(sh.order, gt.Fingerprint)
	sh.curBytes += gt.bytes()
	c.evict(sh)
	return gt
}

// touch moves a fingerprint to the MRU end. Caller holds sh.mu.
func (sh *shard) touch(fp string) {
	for i, f := range sh.order {
		if f == fp {
			sh.order = append(append(sh.order[:i:i], sh.order[i+1:]...), fp)
			return
		}
	}
}

// evict drops LRU entries until the shard fits its budget. Caller holds
// sh.mu.
func (c *Cache) evict(sh *shard) {
	for sh.curBytes > sh.maxBytes && len(sh.order) > 1 {
		victim := sh.order[0]
		sh.order = sh.order[1:]
		if gt, ok := sh.entries[victim]; ok {
			sh.curBytes -= gt.bytes()
			delete(sh.entries, victim)
			c.evictions.Add(1)
		}
	}
}

// Remove deletes the entry under a fingerprint (targeted invalidation:
// the ingestion path retires superseded-version entries after migrating
// them, and drops entries it cannot delta-maintain). Reports whether an
// entry was removed.
func (c *Cache) Remove(fp string) bool {
	sh := c.shardFor(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	gt, ok := sh.entries[fp]
	if !ok {
		return false
	}
	sh.curBytes -= gt.bytes()
	delete(sh.entries, fp)
	for i, f := range sh.order {
		if f == fp {
			sh.order = append(sh.order[:i:i], sh.order[i+1:]...)
			break
		}
	}
	return true
}

// EntrySnapshot is a point-in-time copy of one cache entry's contents:
// the key structure (immutable, shared), the state list as of the
// snapshot (the slice is copied under the shard lock; the CachedState
// values and their Vals are shared read-only per the package contract),
// and the maintenance record. Used by the ingestion path to walk the
// cache without holding shard locks across re-planning and execution.
type EntrySnapshot struct {
	Fingerprint string
	KeyNames    []string
	Keys        []GroupKey
	KeyCols     []*storage.Column
	States      []*CachedState
	Maint       any
	// index is the entry's key → position map (nil when the snapshot
	// was not taken from a GroupTable). Like Keys and KeyCols it is
	// immutable once the entry exists, which is what lets MergeDelta
	// hand all three to a successor with the same group set.
	index map[GroupKey]int
}

// SnapshotEntry exports a group table as an EntrySnapshot. Only valid on
// a table the caller still owns (before Put) or under its shard's mutex:
// after Put the state list is guarded by that mutex. The ingestion path
// uses it to keep an eviction-independent copy of a materialized view's
// states.
func (gt *GroupTable) SnapshotEntry() EntrySnapshot {
	return EntrySnapshot{
		Fingerprint: gt.Fingerprint,
		KeyNames:    gt.KeyNames,
		Keys:        gt.Keys,
		KeyCols:     gt.KeyCols,
		States:      append([]*CachedState(nil), gt.states...),
		Maint:       gt.Maint,
		index:       gt.index,
	}
}

// Snapshot copies every entry's state list out of the cache, one shard
// lock at a time. Entries added or mutated concurrently may or may not
// appear; callers (the append path) serialize ingestion themselves.
func (c *Cache) Snapshot() []EntrySnapshot {
	var out []EntrySnapshot
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, gt := range sh.entries {
			out = append(out, gt.SnapshotEntry())
		}
		sh.mu.Unlock()
	}
	return out
}

// MergeDelta is the delta-merge entry point of incremental ingestion: it
// folds one append batch's per-group state values into a prior entry
// snapshot, producing the successor entry under the post-append
// fingerprint. The union group set keeps the prior entry's group order
// first (so existing consumers see a stable prefix) with groups new in
// the delta appended in delta order; a prior group absent from the delta
// merges the state's identity (i.e. stays unchanged), and a brand-new
// group starts from the identity. Integrity checksums are recomputed by
// AddState over the merged vectors.
//
// deltaVals maps state key → per-group values aligned with deltaKeys;
// every state in prev must be present (a missing state means the delta
// run did not cover the entry, and the whole entry must be invalidated
// instead). deltaPositive maps state key → whether every delta base
// value was provably positive; it is ANDed into PositiveInput.
func MergeDelta(prev EntrySnapshot, newFP string, deltaKeys []GroupKey, deltaKeyCols []*storage.Column,
	deltaVals map[string][]float64, deltaPositive map[string]bool, maint any) (*GroupTable, error) {

	if len(deltaKeyCols) != len(prev.KeyCols) {
		return nil, fmt.Errorf("merge delta: %d key columns, want %d", len(deltaKeyCols), len(prev.KeyCols))
	}
	// An append rarely brings a group the entry has not seen. Then the
	// successor's group set is the prior entry's, and it shares that
	// entry's keys, key columns and index instead of copying them: all
	// three are immutable, and together they outweigh the state values.
	union, keyCols, pos := prev.Keys, prev.KeyCols, prev.index
	if pos == nil {
		pos = keyIndex(union)
	}
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
	for _, cs := range prev.States {
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

// addEvent appends a degradation event.
func (c *Cache) addEvent(ev string) {
	c.evMu.Lock()
	c.events = append(c.events, ev)
	c.evMu.Unlock()
}

// AddEvent records a degradation event from outside the package (the
// ingestion path notes entries and views it had to invalidate instead of
// delta-maintaining); drained into the next query's Result.Events.
func (c *Cache) AddEvent(ev string) { c.addEvent(ev) }

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
// shard's budget only while a single entry is too large for it, LRU order
// mirrors the entry set, every cached state is internally consistent,
// and counters balance (lookups = hits + misses). The counter-balance
// check is only meaningful at quiescence — an in-flight lookup has
// incremented Lookups but not yet its outcome — so call it when no
// lookups are running (the structural checks are valid at any time).
// Used by the concurrency property tests; it takes every shard lock,
// one at a time.
func (c *Cache) CheckInvariants() error {
	for si, sh := range c.shards {
		sh.mu.Lock()
		var sum int64
		for fp, gt := range sh.entries {
			sum += gt.bytes()
			if len(gt.states) != len(gt.byKey) {
				sh.mu.Unlock()
				return fmt.Errorf("shard %d entry %s: %d states but %d keys", si, fp, len(gt.states), len(gt.byKey))
			}
			for key, i := range gt.byKey {
				if i < 0 || i >= len(gt.states) {
					sh.mu.Unlock()
					return fmt.Errorf("shard %d entry %s: key %s maps to out-of-range index %d", si, fp, key, i)
				}
				if gt.states[i].State.Key() != key {
					sh.mu.Unlock()
					return fmt.Errorf("shard %d entry %s: key %s maps to state %s", si, fp, key, gt.states[i].State.Key())
				}
			}
			for _, s := range gt.states {
				if len(s.Vals) != len(gt.Keys) {
					sh.mu.Unlock()
					return fmt.Errorf("shard %d entry %s state %s: %d values for %d groups",
						si, fp, s.State.Key(), len(s.Vals), len(gt.Keys))
				}
			}
			for _, f := range gt.finals {
				if len(f.vals) != len(gt.Keys) {
					sh.mu.Unlock()
					return fmt.Errorf("shard %d entry %s final %s: %d values for %d groups", si, fp, f.t, len(f.vals), len(gt.Keys))
				}
			}
		}
		if sh.curBytes < 0 {
			sh.mu.Unlock()
			return fmt.Errorf("shard %d: negative byte accounting %d", si, sh.curBytes)
		}
		if sh.curBytes != sum {
			sh.mu.Unlock()
			return fmt.Errorf("shard %d: accounted %d bytes, entries hold %d", si, sh.curBytes, sum)
		}
		if sh.curBytes > sh.maxBytes && len(sh.entries) > 1 {
			sh.mu.Unlock()
			return fmt.Errorf("shard %d: %d bytes over a budget of %d with %d entries to evict", si, sh.curBytes, sh.maxBytes, len(sh.entries))
		}
		if len(sh.order) != len(sh.entries) {
			sh.mu.Unlock()
			return fmt.Errorf("shard %d: %d LRU slots for %d entries", si, len(sh.order), len(sh.entries))
		}
		seen := map[string]bool{}
		for _, fp := range sh.order {
			if seen[fp] {
				sh.mu.Unlock()
				return fmt.Errorf("shard %d: fingerprint %s appears twice in LRU order", si, fp)
			}
			seen[fp] = true
			if _, ok := sh.entries[fp]; !ok {
				sh.mu.Unlock()
				return fmt.Errorf("shard %d: LRU order references missing entry %s", si, fp)
			}
		}
		sh.mu.Unlock()
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

// dropCorrupt drops the states a read found corrupt from gt, recording a
// degradation event per state: the next lookup that wants one recomputes
// it from base data. The caller holds the owning shard's mutex.
func (c *Cache) dropCorrupt(sh *shard, gt *GroupTable, bad []*CachedState) {
	if len(bad) == 0 {
		return
	}
	sh.curBytes -= gt.bytes()
	for _, cs := range bad {
		key := cs.State.Key()
		gt.dropState(key)
		c.corruptions.Add(1)
		c.addEvent(fmt.Sprintf("cache: state %s under %s failed integrity check; dropped, recomputing from base data", key, gt.Fingerprint))
	}
	sh.curBytes += gt.bytes()
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
	// Its key structure is immutable and safe to read without locks; see
	// the package comment for the full contract.
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
// runs (session queries, windowed queries, shard workers), and the one
// lookup critical section: under a single hold of the shard lock it
// fetches the fingerprint's entry and resolves every wanted state against
// that same entry — exact match, Theorem 4.1 sharing, or §5.3 sign-split
// reconstruction. A state is checksummed only when it is about to serve,
// at most once per call, so a hit costs O(wanted states), not O(entry);
// one that fails its checksum is passed over as if it were not cached,
// then dropped with a degradation event (callers recompute rather than
// fail). A corrupt column no lookup wants stays until one does. A lookup
// never writes the entry otherwise: a shared or
// sign-split state's r(s) is computed into the result and kept nowhere,
// so a repeat is served the same way, with the same bits. Because entry
// and states are read together, a concurrent Put or Remove can never
// leave a caller holding values without the entry that orders them. The
// wanted finals are read from that same entry in the same hold; one is
// served only when every state it reads was served here with the checksum
// recorded at StoreFinal (ChecksumVals of the values served).
//
// positive is index-aligned with want. usable, when non-nil, vets a hit's
// values — a rejected hit still counts by its kind but is left for the
// caller to compute. guard, when non-nil, wraps the entry fetch and each
// state's resolution so a caller can contain cache faults per lookup (a
// lookup that panics is then simply not served, and counts as a miss).
// Both run under the shard lock and must not call back into the cache.
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
	sh := c.shardFor(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	guard("entry lookup", func() {
		if gt, ok := sh.entries[fp]; ok {
			sh.touch(fp)
			out.Entry = gt
		}
	})
	for i := range want {
		guard("state lookup", func() {
			if err := faultinject.Hit(faultinject.PointCacheGet); err != nil {
				c.addEvent("cache: injected fault on get, treated as miss: " + err.Error())
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
	c.dropCorrupt(sh, out.Entry, v.bad)
	out.Verified = len(v.good) + len(v.bad)
	var finalHits int64
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
				sh.curBytes -= out.Entry.bytes()
				out.Entry.finals = slices.Delete(out.Entry.finals, at, at+1)
				sh.curBytes += out.Entry.bytes()
				c.corruptions.Add(1)
				c.addEvent(fmt.Sprintf("cache: memoized %s under %s failed integrity check; dropped, recomputing from its states", f.t, fp))
			} else if usable == nil || usable(f.vals) {
				out.Finals[fi] = f.vals
				finalHits++
			}
		})
	}
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
	// Count before Put: the cache owns gt afterwards, and a concurrent
	// query's Put may merge new states into it under the shard lock while
	// we'd be reading it unlocked.
	n := gt.NumStates()
	if n == 0 {
		return nil, 0
	}
	return c.Put(gt), n
}

// StoreFinal memoizes the output column of the hardcoded terminating
// function t beside the states it was computed from: vals holds one value
// per group of entry, in entry order, and srcSums the ChecksumVals of the
// state columns it read, in call order (a FinalWant's Src order). Nothing
// is stored unless entry is still the table cached under its fingerprint,
// so a concurrent replace makes the call a no-op. A final rides the byte
// budget like a state. Reports whether it was stored.
func (c *Cache) StoreFinal(entry *GroupTable, t string, vals []float64, srcSums []uint64) bool {
	f := final{t: t, srcSums: srcSums, vals: vals, checksum: ChecksumVals(vals)}
	sh := c.shardFor(entry.Fingerprint)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.entries[entry.Fingerprint] != entry || len(vals) != len(entry.Keys) {
		return false
	}
	sh.curBytes -= entry.bytes()
	if at := entry.final(t, srcSums); at >= 0 {
		entry.finals[at] = f
	} else {
		entry.finals = append(entry.finals, f)
	}
	sh.curBytes += entry.bytes()
	c.evict(sh)
	return true
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
	sh := c.shardFor(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	gt, ok := sh.entries[fp]
	if !ok {
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
	sh := c.shardFor(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	gt, ok := sh.entries[fp]
	if !ok {
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
	sh := c.shardFor(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	gt, ok := sh.entries[fp]
	if !ok {
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
// absent or holds no such states (or only empty vectors). Columns are
// replaced by corrupted copies rather than mutated in place, so value
// slices handed out by earlier Lookups stay valid under the read-only
// contract.
func (c *Cache) CorruptEntryForTest(fp string, keys ...string) int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for f, gt := range sh.entries {
			if fp != "" && f != fp {
				continue
			}
			for i, s := range gt.states {
				if len(s.Vals) == 0 || (len(keys) > 0 && !slices.Contains(keys, s.State.Key())) {
					continue
				}
				bad := append([]float64(nil), s.Vals...)
				bad[0] = math.Float64frombits(math.Float64bits(bad[0]) ^ 1)
				gt.states[i] = &CachedState{
					State: s.State, Vals: bad,
					PositiveInput: s.PositiveInput, checksum: s.checksum,
				}
				n++
			}
			if len(keys) > 0 {
				continue
			}
			for i, f := range gt.finals {
				if len(f.vals) == 0 {
					continue
				}
				bad := append([]float64(nil), f.vals...)
				bad[0] = math.Float64frombits(math.Float64bits(bad[0]) ^ 1)
				gt.finals[i].vals = bad
			}
		}
		sh.mu.Unlock()
	}
	return n
}
