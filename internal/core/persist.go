package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sudaf/internal/cache"
	"sudaf/internal/canonical"
	"sudaf/internal/exec"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/storage"
)

// Session persistence: Options.DataDir names a directory holding every
// registered table as an encoded segment file (tables/<name>.seg, the
// SDF2 format of internal/storage/persist.go) plus a JSON snapshot of
// the state cache (state_cache.json). Save writes both atomically
// (tmp+rename per file); NewSession reloads them, so a restarted
// session answers its first Share-mode query from warm cached states
// without touching base rows.
//
// Exactness contract: every float64 that round-trips through the cache
// snapshot (state values, scalar coefficients, float key columns) is
// serialized as its IEEE-754 bit pattern (math.Float64bits), so NaN
// payloads, ±0 and subnormals survive byte-for-byte. Table epochs are
// preserved by the segment files, so post-restart fingerprints equal
// pre-restart fingerprints and cache keys still match.
//
// Of an entry's maintenance record (GroupTable.Maint) only the table
// versions of its key are persisted, as the optional "tables" field: a
// restored entry is not delta-maintainable, so a post-restart append to
// a table it reads invalidates it. An entry written without the field
// (by an older build) is invalidated by any append. States whose scalar
// chains carry symbolic (parameterized) coefficients have no faithful
// numeric serialization and are simply skipped (the next query
// recomputes and re-caches them).

const (
	// cacheFileName is the state-cache snapshot inside DataDir.
	cacheFileName = "state_cache.json"
	// tablesDirName is the per-table segment file directory inside DataDir.
	tablesDirName = "tables"
	// cacheFormatVersion versions the JSON snapshot schema.
	cacheFormatVersion = 1
)

// persistedCache is the on-disk shape of a state-cache snapshot.
type persistedCache struct {
	Version int              `json:"version"`
	Entries []persistedEntry `json:"entries"`
}

// persistedEntry is one cache entry (fingerprint → group table). Tables
// holds the version (name → epoch) of every table the entry's key reads.
type persistedEntry struct {
	Fingerprint string            `json:"fp"`
	Tables      map[string]int64  `json:"tables,omitempty"`
	KeyNames    []string          `json:"key_names,omitempty"`
	Keys        [][2]int64        `json:"keys,omitempty"`
	KeyCols     []persistedKeyCol `json:"key_cols,omitempty"`
	States      []persistedState  `json:"states"`
}

// persistedKeyCol is one materialized group-key column.
type persistedKeyCol struct {
	Name string   `json:"name"`
	Kind int      `json:"kind"`
	Ints []int64  `json:"ints,omitempty"`
	Bits []uint64 `json:"bits,omitempty"` // float values as Float64bits
	Strs []string `json:"strs,omitempty"`
}

// persistedState is one canonical aggregation state with its per-group
// values. Key is the state's identity string, stored for integrity: a
// reconstructed state whose Key() disagrees is dropped rather than
// silently cached under the wrong identity.
type persistedState struct {
	Op       int             `json:"op"`
	Prims    []persistedPrim `json:"prims"`
	Base     string          `json:"base"`
	Key      string          `json:"key"`
	Vals     []uint64        `json:"vals"` // Float64bits per group
	Positive bool            `json:"positive,omitempty"`
}

// persistedPrim is one scalar-chain primitive with a numeric coefficient.
type persistedPrim struct {
	Kind int    `json:"kind"`
	A    uint64 `json:"a"` // coefficient as Float64bits
}

// DataDir returns the session's persistence directory ("" when the
// session is in-memory only).
func (s *Session) DataDir() string { return s.dataDir }

// LoadError returns the (joined) errors encountered while restoring
// DataDir at session construction, or nil. Loading is best-effort: a
// corrupt table file or cache snapshot is skipped and reported here,
// while everything readable is restored.
func (s *Session) LoadError() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.loadErr
}

// Save persists every registered table and the current state cache to
// DataDir. It serializes against ingestion (appends block while a save
// is in progress) so the table files and the cache snapshot are
// mutually consistent. Queries keep running concurrently.
func (s *Session) Save() error {
	if s.dataDir == "" {
		return fmt.Errorf("core: Save requires Options.DataDir")
	}
	if err := s.beginOp("save"); err != nil {
		return err
	}
	defer s.endOp()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	tdir := filepath.Join(s.dataDir, tablesDirName)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	for _, name := range s.cat.Names() {
		t, err := s.cat.Table(name)
		if err != nil {
			return fmt.Errorf("core: save table %q: %w", name, err)
		}
		if err := t.SaveSegFile(filepath.Join(tdir, name+storage.SegFileExt)); err != nil {
			return fmt.Errorf("core: save table %q: %w", name, err)
		}
	}

	pc := snapshotCacheForPersist(s.stateCache())
	data, err := json.Marshal(pc)
	if err != nil {
		return fmt.Errorf("core: save cache: %w", err)
	}
	path := filepath.Join(s.dataDir, cacheFileName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("core: save cache: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: save cache: %w", err)
	}
	s.persistSaves.Add(1)
	return nil
}

// snapshotCacheForPersist converts a cache snapshot into the on-disk
// shape, skipping states that cannot be serialized faithfully.
func snapshotCacheForPersist(c *cache.Cache) persistedCache {
	snaps := c.Snapshot()
	// Deterministic file contents: order entries by fingerprint.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Fingerprint < snaps[j].Fingerprint })
	pc := persistedCache{Version: cacheFormatVersion}
	for _, e := range snaps {
		pe := persistedEntry{
			Fingerprint: e.Fingerprint,
			KeyNames:    e.KeyNames,
			Keys:        make([][2]int64, len(e.Keys)),
		}
		if mr, ok := e.Maint.(*maintRec); ok {
			pe.Tables = make(map[string]int64, len(mr.key.Tables))
			for _, t := range mr.key.Tables {
				pe.Tables[t.Name] = t.Epoch
			}
		}
		for i, k := range e.Keys {
			pe.Keys[i] = k
		}
		for _, kc := range e.KeyCols {
			pe.KeyCols = append(pe.KeyCols, persistKeyCol(kc))
		}
		for _, cs := range e.States {
			ps, ok := persistState(cs)
			if !ok {
				continue
			}
			pe.States = append(pe.States, ps)
		}
		if len(pe.States) == 0 {
			continue
		}
		pc.Entries = append(pc.Entries, pe)
	}
	return pc
}

func persistKeyCol(c *storage.Column) persistedKeyCol {
	pk := persistedKeyCol{Name: c.Name, Kind: int(c.Kind)}
	n := c.Len()
	switch c.Kind {
	case storage.KindFloat:
		pk.Bits = make([]uint64, n)
		for i := 0; i < n; i++ {
			pk.Bits[i] = math.Float64bits(c.AsFloat(i))
		}
	case storage.KindInt:
		pk.Ints = make([]int64, n)
		for i := 0; i < n; i++ {
			pk.Ints[i] = c.AsInt(i)
		}
	default:
		pk.Strs = make([]string, n)
		for i := 0; i < n; i++ {
			pk.Strs[i] = c.StringAt(i)
		}
	}
	return pk
}

// persistState serializes one cached state; ok is false when the state
// carries symbolic coefficients (no faithful numeric form).
func persistState(cs *cache.CachedState) (persistedState, bool) {
	st := cs.State
	ps := persistedState{
		Op:       int(st.Op),
		Base:     "1",
		Key:      st.Key(),
		Positive: cs.PositiveInput,
	}
	if st.Base != nil {
		ps.Base = st.Base.String()
	}
	for _, p := range st.F.Prims {
		a, err := scalar.CEval(p.A, nil)
		if err != nil {
			return persistedState{}, false // symbolic coefficient
		}
		ps.Prims = append(ps.Prims, persistedPrim{Kind: int(p.Kind), A: math.Float64bits(a)})
	}
	ps.Vals = make([]uint64, len(cs.Vals))
	for i, v := range cs.Vals {
		ps.Vals[i] = math.Float64bits(v)
	}
	return ps, true
}

// loadDataDir restores tables and the state cache from s.dataDir into a
// freshly constructed session. Best-effort: unreadable pieces are
// skipped and their errors joined into the return value.
func (s *Session) loadDataDir() error {
	var errs []error

	tdir := filepath.Join(s.dataDir, tablesDirName)
	ents, err := os.ReadDir(tdir)
	if err != nil && !os.IsNotExist(err) {
		errs = append(errs, fmt.Errorf("core: load tables: %w", err))
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), storage.SegFileExt) {
			continue
		}
		path := filepath.Join(tdir, de.Name())
		t, err := storage.LoadSegFile(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: load %s: %w", de.Name(), err))
			continue
		}
		if err := s.Register(t); err != nil {
			errs = append(errs, fmt.Errorf("core: register %q: %w", t.Name, err))
			continue
		}
		s.persistTablesLoaded.Add(1)
	}

	if err := s.loadCacheSnapshot(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// loadCacheSnapshot restores state_cache.json into the session cache.
func (s *Session) loadCacheSnapshot() error {
	path := filepath.Join(s.dataDir, cacheFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("core: load cache: %w", err)
	}
	var pc persistedCache
	if err := json.Unmarshal(data, &pc); err != nil {
		return fmt.Errorf("core: load cache: %w", err)
	}
	if pc.Version != cacheFormatVersion {
		return fmt.Errorf("core: load cache: unsupported snapshot version %d", pc.Version)
	}
	c := s.stateCache()
	var errs []error
	for _, pe := range pc.Entries {
		gt, err := entryFromPersisted(pe)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: load cache entry %q: %w", pe.Fingerprint, err))
			continue
		}
		if gt == nil {
			continue // every state was dropped
		}
		c.Put(gt)
		s.persistEntriesLoaded.Add(1)
	}
	return errors.Join(errs...)
}

// entryFromPersisted rebuilds a GroupTable from its on-disk shape. A
// restored entry serves lookups but is invalidated (not delta-maintained)
// by post-restart appends: its record carries the key's tables and no
// statement, or is nil when the snapshot did not record the tables.
func entryFromPersisted(pe persistedEntry) (*cache.GroupTable, error) {
	keys := make([]cache.GroupKey, len(pe.Keys))
	for i, k := range pe.Keys {
		keys[i] = k
	}
	keyCols := make([]*storage.Column, 0, len(pe.KeyCols))
	for _, pk := range pe.KeyCols {
		kc, err := keyColFromPersisted(pk, len(keys))
		if err != nil {
			return nil, err
		}
		keyCols = append(keyCols, kc)
	}
	gt := cache.NewGroupTable(pe.Fingerprint, pe.KeyNames, keys, keyCols)
	if pe.Tables != nil {
		mr := &maintRec{}
		for name, epoch := range pe.Tables {
			mr.key.Tables = append(mr.key.Tables, exec.TableVersion{Name: name, Epoch: epoch})
		}
		sort.Slice(mr.key.Tables, func(i, j int) bool { return mr.key.Tables[i].Name < mr.key.Tables[j].Name })
		gt.Maint = mr
	}
	added := 0
	for _, ps := range pe.States {
		st, err := stateFromPersisted(ps)
		if err != nil {
			continue // unreconstructable state: recompute on demand
		}
		if len(ps.Vals) != len(keys) {
			return nil, fmt.Errorf("state %s: %d values for %d groups", ps.Key, len(ps.Vals), len(keys))
		}
		vals := make([]float64, len(ps.Vals))
		for i, b := range ps.Vals {
			vals[i] = math.Float64frombits(b)
		}
		if err := gt.AddState(&cache.CachedState{State: st, Vals: vals, PositiveInput: ps.Positive}); err != nil {
			return nil, err
		}
		added++
	}
	if added == 0 {
		return nil, nil
	}
	return gt, nil
}

func keyColFromPersisted(pk persistedKeyCol, n int) (*storage.Column, error) {
	kind := storage.Kind(pk.Kind)
	switch kind {
	case storage.KindFloat, storage.KindInt, storage.KindString:
	default:
		return nil, fmt.Errorf("key column %q: bad kind %d", pk.Name, pk.Kind)
	}
	c := storage.NewColumn(pk.Name, kind)
	switch kind {
	case storage.KindFloat:
		if len(pk.Bits) != n {
			return nil, fmt.Errorf("key column %q: %d values for %d groups", pk.Name, len(pk.Bits), n)
		}
		for _, b := range pk.Bits {
			c.AppendFloat(math.Float64frombits(b))
		}
	case storage.KindInt:
		if len(pk.Ints) != n {
			return nil, fmt.Errorf("key column %q: %d values for %d groups", pk.Name, len(pk.Ints), n)
		}
		for _, v := range pk.Ints {
			c.AppendInt(v)
		}
	default:
		if len(pk.Strs) != n {
			return nil, fmt.Errorf("key column %q: %d values for %d groups", pk.Name, len(pk.Strs), n)
		}
		for _, v := range pk.Strs {
			c.AppendString(v)
		}
	}
	return c, nil
}

// stateFromPersisted rebuilds a canonical state and verifies its
// identity key matches the persisted one.
func stateFromPersisted(ps persistedState) (canonical.State, error) {
	if ps.Op < int(canonical.OpSum) || ps.Op > int(canonical.OpMax) {
		return canonical.State{}, fmt.Errorf("bad op %d", ps.Op)
	}
	base, err := expr.Parse(ps.Base)
	if err != nil {
		return canonical.State{}, fmt.Errorf("base %q: %w", ps.Base, err)
	}
	prims := make([]scalar.Prim, len(ps.Prims))
	for i, pp := range ps.Prims {
		if pp.Kind < int(scalar.KConst) || pp.Kind > int(scalar.KExp) {
			return canonical.State{}, fmt.Errorf("bad prim kind %d", pp.Kind)
		}
		prims[i] = scalar.Prim{Kind: scalar.Kind(pp.Kind), A: scalar.Num(math.Float64frombits(pp.A))}
	}
	st := canonical.State{Op: canonical.AggOp(ps.Op), F: scalar.Chain{Prims: prims}, Base: base}
	if got := st.Key(); got != ps.Key {
		return canonical.State{}, fmt.Errorf("identity drift: reconstructed %q, persisted %q", got, ps.Key)
	}
	return st, nil
}
