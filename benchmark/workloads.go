package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"sudaf"
	"sudaf/internal/data"
	"sudaf/internal/storage"
)

const engineWorkers = 2

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "scan_cold":
		return &scanCold{cfg: cfg}, nil
	case "share_zipf":
		return &shareWL{cfg: cfg, regions: 50}, nil
	case "share_thrash":
		return &shareWL{cfg: cfg, regions: 500, cacheBytes: cfg.thrashCacheBytes, warmTop: 150}, nil
	case "ingest_mixed":
		return &ingestMixed{cfg: cfg}, nil
	case "serve_http":
		return &serveHTTP{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

var workloadNames = []string{"scan_cold", "share_zipf", "share_thrash", "ingest_mixed", "serve_http"}

func openEngine(traced bool, cacheBytes int64, dataDir string) *sudaf.Engine {
	opts := sudaf.Options{Workers: engineWorkers, CacheBytes: cacheBytes, DataDir: dataDir}
	if traced {
		opts.TraceRate = 1
	}
	return sudaf.Open(opts)
}

// registerStats is what Register cost: rows registered, time taken and
// segment encodings built.
type registerStats struct {
	rows     int
	dur      time.Duration
	segments int64
}

// registerAll registers the tables under a benchmark-side stopwatch.
func registerAll(eng *sudaf.Engine, tables ...*sudaf.Table) (registerStats, error) {
	var st registerStats
	seg0, t0 := storage.EncodedSegmentsBuilt(), time.Now()
	for _, t := range tables {
		st.rows += t.NumRows()
		if err := eng.Register(t); err != nil {
			return st, err
		}
	}
	st.dur, st.segments = time.Since(t0), storage.EncodedSegmentsBuilt()-seg0
	return st, nil
}

// ---- scan_cold ----

// scanCold runs in Rewrite mode, which bypasses the sharing cache: every
// query scans. A fixed cycle of 110 ops gives the four classes shares of
// 20/50/20/10 (m1 grand, m2 group-by, m3 join, enc run-folds) while
// stepping through AS1's aggregates, so only the data depends on the seed.
type scanCold struct {
	cfg    *config
	milanT *sudaf.Table
	encT   *sudaf.Table
	tpcds  []*sudaf.Table
	seq    []qspec

	eng      *sudaf.Engine
	reg      registerStats
	milan    *milanOracle
	enc      *encOracle
	join     *joinOracle
	factRows int
}

func (w *scanCold) generate() {
	w.milanT = genMilan(w.cfg.rows(1_000_000), w.cfg.seed)
	w.encT = genEnc(w.cfg.rows(1_000_000), w.cfg.seed+1)
	scale := tpcdsScale
	if w.cfg.scale < 0.5 {
		scale = 1
	}
	w.tpcds = data.TPCDS(scale, w.cfg.seed+2)
	w.factRows = data.TPCDSScale(scale)
	if w.seq != nil {
		return
	}
	pattern := []int{clsModel2, clsGrand, clsModel2, clsJoin, clsModel2, clsEnc, clsModel2, clsGrand, clsModel2, clsJoin}
	for b := 0; b < len(as1Aggs); b++ {
		for p, class := range pattern {
			agg := as1Aggs[(b+3*p)%len(as1Aggs)]
			switch class {
			case clsGrand:
				w.seq = append(w.seq, grandQuery(agg))
			case clsModel2:
				w.seq = append(w.seq, model2Query(agg))
			case clsJoin:
				w.seq = append(w.seq, joinQuery(agg))
			case clsEnc:
				w.seq = append(w.seq, encQuery(encAggs[b%len(encAggs)]))
			}
		}
	}
}

func (w *scanCold) setup(tr *tracer) error {
	w.eng = openEngine(tr != nil, 0, "")
	var err error
	if w.reg, err = registerAll(w.eng, append([]*sudaf.Table{w.milanT, w.encT}, w.tpcds...)...); err != nil {
		return err
	}
	// Running every distinct query once lets lazy set-up (form
	// compilation, column statistics) finish before the window.
	seen := map[string]bool{}
	for i := range w.seq {
		if seen[w.seq[i].sql] {
			continue
		}
		seen[w.seq[i].sql] = true
		if _, err := w.eng.Query(w.seq[i].sql, sudaf.Rewrite); err != nil {
			return err
		}
	}
	return nil
}

func (w *scanCold) oracles() {
	if w.milan == nil {
		w.milan, w.enc, w.join = newMilanOracle(w.milanT), newEncOracle(w.encT), newJoinOracle(w.tpcds)
	}
}

// block: every ten ops have the four classes in their shares; the
// aggregates rotate through them.
func (w *scanCold) block() int { return 10 }

func (w *scanCold) do(i int, tr *tracer) (sample, *check, error) {
	q := &w.seq[i%len(w.seq)]
	s, res, err := engineQuery(w.eng, q, sudaf.Rewrite, i, tr)
	if err != nil {
		return s, nil, err
	}
	return s, &check{order: i, fn: func() error {
		w.oracles()
		rows := tableRows(res.Table, q.class == clsModel2 || q.class == clsJoin)
		switch q.class {
		case clsEnc:
			return w.enc.check(*q, rows)
		case clsJoin:
			return w.join.check(*q, rows)
		}
		return w.milan.check(*q, rows)
	}}, nil
}

func (w *scanCold) teardown() error {
	err := closeEngine(w.eng)
	w.eng, w.milan, w.enc, w.join = nil, nil, nil, nil
	return err
}

// ---- share_zipf and share_thrash ----

// shareWL runs Fig. 10's 16 aggregates in Share mode over zipf-drawn
// regions. With 50 regions and the default cache everything stays cached
// (share_zipf); with 500 regions and a cache frozen well below the
// working set the same generator evicts and rescans (share_thrash).
type shareWL struct {
	cfg        *config
	regions    int
	cacheBytes int64 // 0: the engine default
	warmTop    int   // warm only the hottest regions (0: all, and verify)
	aggs       []string

	milanT *sudaf.Table
	regs   [][2]int64
	seq    []qspec

	eng    *sudaf.Engine
	reg    registerStats
	oracle *milanOracle
}

func (w *shareWL) generate() {
	w.milanT = genMilan(w.cfg.rows(1_000_000), w.cfg.seed)
	if w.seq != nil {
		return
	}
	if w.aggs == nil {
		w.aggs = fig10Aggs
	}
	w.regs = regions(milanSquares(w.milanT.NumRows()), w.regions)
	w.seq = shareSequence(rand.New(rand.NewSource(w.cfg.seed+10)), w.aggs, w.regs, 128)
}

// warmShare fills the cache: the grand states, then the regions from the
// coldest to the hottest so that the hottest are the most recently used.
// With verify, every aggregate must then answer without scanning.
func warmShare(eng *sudaf.Engine, regs [][2]int64, top int, aggs []string) error {
	if _, err := eng.Query(warmGrandSQL, sudaf.Share); err != nil {
		return err
	}
	verify := top == 0
	if top == 0 || top > len(regs) {
		top = len(regs)
	}
	for r := top - 1; r >= 0; r-- {
		if _, err := eng.Query(warmRegionSQL(regs[r][0], regs[r][1]), sudaf.Share); err != nil {
			return err
		}
	}
	if !verify {
		return nil
	}
	for _, a := range aggs {
		if _, sk := sketchQuantile(a); sk {
			continue // same states as moment_sketch; running the solver here would only cost time
		}
		qs := []qspec{grandQuery(a)}
		for _, r := range regs {
			qs = append(qs, regionQuery(a, r[0], r[1]))
		}
		for _, q := range qs {
			res, err := eng.Query(q.sql, sudaf.Share)
			if err != nil {
				return err
			}
			if res.RowsScanned != 0 {
				return fmt.Errorf("warm-up left %q scanning %d rows", q.sql, res.RowsScanned)
			}
		}
	}
	return nil
}

func (w *shareWL) setup(tr *tracer) error {
	w.eng = openEngine(tr != nil, w.cacheBytes, "")
	var err error
	if w.reg, err = registerAll(w.eng, w.milanT); err != nil {
		return err
	}
	return warmShare(w.eng, w.regs, w.warmTop, w.aggs)
}

func (w *shareWL) block() int { return 5 * len(w.aggs) }

func (w *shareWL) do(i int, tr *tracer) (sample, *check, error) {
	q := &w.seq[i%len(w.seq)]
	s, res, err := engineQuery(w.eng, q, sudaf.Share, i, tr)
	if err != nil {
		return s, nil, err
	}
	return s, &check{order: i, fn: func() error {
		if w.oracle == nil {
			w.oracle = newMilanOracle(w.milanT)
		}
		return w.oracle.check(*q, tableRows(res.Table, q.class == clsRegion))
	}}, nil
}

func (w *shareWL) teardown() error {
	err := closeEngine(w.eng)
	w.eng, w.oracle = nil, nil
	return err
}

// ---- ingest_mixed ----

// ingestMixed interleaves writes with reads: each cycle appends one
// 2,000-row delta, waits for the emission of the live sliding-window
// subscription a second goroutine drains, and then runs three model-2
// queries and one grand aggregate from the cache the append just
// delta-maintained.
type ingestMixed struct {
	cfg    *config
	milanT *sudaf.Table
	pool   []*sudaf.Table // pre-generated deltas, cycled

	eng      *sudaf.Engine
	reg      registerStats
	dataDir  string
	restores []float64 // seconds, one per reopen
	saveDur  time.Duration
	sub      *sudaf.Subscription
	drained  sync.WaitGroup

	// Written by the load loop (single client), read after the window.
	appendStart []time.Time
	baseRows    int

	// Written by the drainer, guarded by mu; emitted signals every
	// emission and the end of the stream.
	mu        sync.Mutex
	emitted   *sync.Cond
	emitRecv  map[int]time.Time // LastRow → receive time
	emitCheck []check
	emits     int
	subErr    error
	subDone   bool

	oracle  *milanOracle
	applied int

	tr   *tracer   // non-nil in the traced pass
	lags []float64 // emission lags of the last settled window, ms
}

const (
	deltaPool = 64
	// ingestCacheBytes bounds the state cache. Every append leaves the
	// previous epoch's entries behind for the LRU to evict, so the cache
	// fills at ~1 MB per append; a 64 MiB budget is reached early in the
	// window, which makes heap_live_mb independent of how many appends the
	// window happened to fit.
	ingestCacheBytes = 64 << 20
)

func (w *ingestMixed) generate() {
	rows := w.cfg.rows(1_000_000)
	w.milanT = genMilan(rows, w.cfg.seed)
	if w.pool != nil {
		return
	}
	for k := 0; k < deltaPool; k++ {
		w.pool = append(w.pool, data.Milan(deltaRows, milanSquares(rows), w.cfg.seed+100+int64(k)))
	}
}

func (w *ingestMixed) warmQueries() []qspec {
	qs := []qspec{grandQuery("avg")}
	for _, a := range mixAggs {
		qs = append(qs, model2Query(a))
	}
	return qs
}

func (w *ingestMixed) setup(tr *tracer) error {
	if err := os.MkdirAll(w.cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.cfg.outDir, "datadir-")
	if err != nil {
		return err
	}
	w.dataDir, w.tr = dir, tr
	w.eng = openEngine(tr != nil, ingestCacheBytes, dir)
	if w.reg, err = registerAll(w.eng, w.milanT); err != nil {
		return err
	}
	for _, q := range w.warmQueries() {
		if _, err := w.eng.Query(q.sql, sudaf.Share); err != nil {
			return err
		}
	}
	// Persistence: save the warm 1M-row state, then reopen it three times.
	// A restored engine must answer its first Share query from the cache.
	t0 := time.Now()
	if err := w.eng.Save(); err != nil {
		return err
	}
	w.saveDur = time.Since(t0)
	w.restores = nil
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		re := sudaf.Open(sudaf.Options{Workers: engineWorkers, DataDir: dir})
		w.restores = append(w.restores, time.Since(t0).Seconds())
		err := re.LoadError()
		if err == nil {
			var res *sudaf.Result
			if res, err = re.Query(model2Query("std").sql, sudaf.Share); err == nil && res.RowsScanned != 0 {
				err = fmt.Errorf("first Share query after restore scanned %d rows", res.RowsScanned)
			}
		}
		if cerr := closeEngine(re); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("restore %d: %w", k, err)
		}
	}
	// The live subscription; its first emission covers the rows already
	// in the table and is drained here, before the window.
	w.baseRows = w.milanT.NumRows()
	w.appendStart, w.emitRecv, w.emitCheck, w.emits, w.subErr, w.subDone = nil, map[int]time.Time{}, nil, 0, nil, false
	w.emitted = sync.NewCond(&w.mu)
	if w.sub, err = w.eng.Subscribe(context.Background(), windowSQL, sudaf.Share); err != nil {
		return err
	}
	first := make(chan struct{})
	w.drained.Add(1)
	go w.drain(first)
	select {
	case <-first:
	case <-time.After(60 * time.Second):
		return fmt.Errorf("subscription's initial emission did not arrive")
	}
	return nil
}

// drain receives emissions until the subscription closes. It only stamps
// receive times and retains a few tables; matching against append start
// times happens after the window.
func (w *ingestMixed) drain(first chan struct{}) {
	defer w.drained.Done()
	last := time.Now()
	for wr := range w.sub.Results() {
		now := time.Now()
		w.tr.record(int(wr.Seq), "Subscription.recv", last, now, nil)
		last = now
		w.mu.Lock()
		w.emitRecv[wr.LastRow] = now
		w.emits++
		n := w.emits
		if n%retainEvery == 2 && len(w.emitCheck) < maxRetained {
			appends := (wr.LastRow + 1 - w.baseRows) / deltaRows
			w.emitCheck = append(w.emitCheck, check{order: appends*8 + 7, fn: func() error {
				w.advance(appends)
				return w.oracle.checkWindow(wr.FirstRow, wr.LastRow, wr.Table)
			}})
		}
		w.emitted.Broadcast()
		w.mu.Unlock()
		if n == 1 {
			close(first)
		}
	}
	w.mu.Lock()
	w.subErr, w.subDone = w.sub.Err(), true
	w.emitted.Broadcast()
	w.mu.Unlock()
}

// awaitEmission blocks until the emission ending at row lastRow has been
// received, or the stream has ended.
func (w *ingestMixed) awaitEmission(lastRow int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if _, ok := w.emitRecv[lastRow]; ok {
			return nil
		}
		if w.subDone {
			return fmt.Errorf("subscription ended before the window ending at row %d: %v", lastRow, w.subErr)
		}
		w.emitted.Wait()
	}
}

// advance replays deltas into the oracle until it has seen `appends`.
func (w *ingestMixed) advance(appends int) {
	if w.oracle == nil {
		w.oracle = newMilanOracle(w.milanT)
		w.applied = 0
	}
	for ; w.applied < appends; w.applied++ {
		w.oracle.append(w.pool[w.applied%len(w.pool)])
	}
}

func (w *ingestMixed) block() int { return 5 }

func (w *ingestMixed) do(i int, tr *tracer) (sample, *check, error) {
	cycle, pos := i/5, i%5
	if pos == 0 {
		t0 := time.Now()
		w.appendStart = append(w.appendStart, t0)
		res, err := w.eng.Append(context.Background(), milanTable, w.pool[cycle%len(w.pool)])
		if err != nil {
			return sample{}, nil, err
		}
		tr.record(i, "Append", t0, time.Now(), nil)
		// The append is done when its emission has arrived. On one thread
		// the subscription's fold would otherwise run inside whichever
		// later query the scheduler picked, and be timed as that query.
		if err := w.awaitEmission(w.baseRows + len(w.appendStart)*deltaRows - 1); err != nil {
			return sample{}, nil, err
		}
		return sample{class: clsAppend, out: res.RowsAppended}, nil, nil
	}
	q := grandQuery("avg")
	if pos < 4 {
		q = model2Query(mixAggs[(cycle*3+pos-1)%len(mixAggs)])
	}
	s, res, err := engineQuery(w.eng, &q, sudaf.Share, i, tr)
	if err != nil {
		return s, nil, err
	}
	appends := cycle + 1
	return s, &check{order: appends*8 + pos, fn: func() error {
		w.advance(appends)
		return w.oracle.check(q, tableRows(res.Table, q.class == clsModel2))
	}}, nil
}

// emitLags waits for the subscription to catch up with the last append,
// then returns Append-call-to-emission-received lags in ms and moves the
// retained emission checks into win.
func (w *ingestMixed) emitLags(win *window) ([]float64, error) {
	want := w.baseRows + len(w.appendStart)*deltaRows - 1
	deadline := time.Now().Add(20 * time.Second)
	for {
		w.mu.Lock()
		_, ok := w.emitRecv[want]
		err := w.subErr
		w.mu.Unlock()
		if ok || len(w.appendStart) == 0 {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("subscription ended: %w", err)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("subscription never emitted the window ending at row %d", want)
		}
		time.Sleep(time.Millisecond)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	lags := make([]float64, 0, len(w.appendStart))
	for k, t0 := range w.appendStart {
		recv, ok := w.emitRecv[w.baseRows+(k+1)*deltaRows-1]
		if !ok {
			return nil, fmt.Errorf("append %d has no emission", k)
		}
		lags = append(lags, float64(recv.Sub(t0).Nanoseconds())/1e6)
	}
	win.checks = append(win.checks, w.emitCheck...)
	w.emitCheck = nil
	return lags, nil
}

func (w *ingestMixed) teardown() error {
	if w.sub != nil {
		w.sub.Close()
		w.drained.Wait()
		w.sub = nil
	}
	err := closeEngine(w.eng)
	w.eng, w.oracle = nil, nil
	if w.dataDir != "" {
		if rerr := os.RemoveAll(w.dataDir); err == nil {
			err = rerr
		}
		w.dataDir = ""
	}
	return err
}
