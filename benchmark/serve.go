package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sudaf"
	"sudaf/internal/server"
	"sudaf/internal/server/client"
)

// serveHTTP drives the in-process HTTP front-end over loopback. The
// engine is fully warm, so framing, JSON and HTTP dominate: 70 % prepared
// grand aggregates (engine ≈ 10 µs), 20 % region queries streaming a few
// hundred rows, 10 % /v1/batch requests of 8 overlapping region queries.
// Only exact aggregates are used; the sketch solver would hide the server.
type serveHTTP struct {
	cfg    *config
	milanT *sudaf.Table
	regs   [][2]int64
	seq    []httpOp

	eng     *sudaf.Engine
	reg     registerStats
	srv     *server.Server
	hcs     []*http.Client
	cls     []*client.Client
	handles [][]string // per client, one prepared handle per exactAggs entry
	oracle  *milanOracle
	omu     sync.Mutex
	poller  *queuePoller // traced pass only
}

const (
	httpConns  = 2 // the closed loop uses the first, the open loop both
	batchWidth = 8
)

type httpOp struct {
	class int
	agg   int     // clsGrand: index into exactAggs
	qs    []qspec // clsRegion: one query; clsBatch: batchWidth queries
}

func (w *serveHTTP) generate() {
	w.milanT = genMilan(w.cfg.rows(1_000_000), w.cfg.seed)
	if w.seq != nil {
		return
	}
	w.regs = regions(milanSquares(w.milanT.NumRows()), 50)
	rng := rand.New(rand.NewSource(w.cfg.seed + 20))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(w.regs)-1))
	na := len(exactAggs)
	for b := 0; b < 256; b++ {
		start := len(w.seq)
		for k := 0; k < 14; k++ {
			w.seq = append(w.seq, httpOp{class: clsGrand, agg: (b*14 + k) % na})
		}
		for k := 0; k < 4; k++ {
			r := w.regs[zipf.Uint64()]
			w.seq = append(w.seq, httpOp{class: clsRegion, qs: []qspec{regionQuery(exactAggs[(b*4+k)%na], r[0], r[1])}})
		}
		for k := 0; k < 2; k++ {
			r := w.regs[zipf.Uint64()]
			op := httpOp{class: clsBatch}
			for j := 0; j < batchWidth; j++ {
				op.qs = append(op.qs, regionQuery(exactAggs[(b*2+k+j)%na], r[0], r[1]))
			}
			w.seq = append(w.seq, op)
		}
		blk := w.seq[start:]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
}

func (w *serveHTTP) setup(tr *tracer) error {
	w.eng = openEngine(tr != nil, 0, "")
	var err error
	if w.reg, err = registerAll(w.eng, w.milanT); err != nil {
		return err
	}
	if err := warmShare(w.eng, w.regs, 0, exactAggs); err != nil {
		return err
	}
	if w.srv, err = server.New(server.Config{Session: w.eng.Session()}); err != nil {
		return err
	}
	if err := w.srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	ctx := context.Background()
	w.hcs, w.cls, w.handles = nil, nil, nil
	for c := 0; c < httpConns; c++ {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
		// No retries: a shed or torn request must show up as a failure.
		cl := client.New(w.srv.Addr(), client.Options{Retries: -1, HTTPClient: hc})
		w.hcs, w.cls = append(w.hcs, hc), append(w.cls, cl)
		if err := cl.OpenSession(ctx); err != nil {
			return err
		}
		var hs []string
		for _, a := range exactAggs {
			h, err := cl.Prepare(ctx, grandQuery(a).sql, "share")
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		w.handles = append(w.handles, hs)
	}
	if tr != nil {
		w.poller = startQueuePoller(w.eng)
	}
	return nil
}

func (w *serveHTTP) block() int { return 20 }

// request sends op i on connection c and returns the results with their
// specs, wrapped in a benchmark-side span when traced.
func (w *serveHTTP) request(c, i int, tr *tracer) (sample, []qspec, []*client.Result, error) {
	op := &w.seq[i%len(w.seq)]
	ctx := context.Background()
	cl := w.cls[c]
	t0 := time.Now()
	var qs []qspec
	var rs []*client.Result
	var err error
	name := "client.Query"
	switch op.class {
	case clsGrand:
		var r *client.Result
		r, err = cl.QueryPrepared(ctx, w.handles[c][op.agg])
		qs, rs = []qspec{grandQuery(exactAggs[op.agg])}, []*client.Result{r}
		name = "client.QueryPrepared"
	case clsRegion:
		var r *client.Result
		r, err = cl.Query(ctx, op.qs[0].sql, "share")
		qs, rs = op.qs, []*client.Result{r}
	default:
		sqls := make([]string, len(op.qs))
		for j := range op.qs {
			sqls[j] = op.qs[j].sql
		}
		rs, err = cl.QueryBatch(ctx, sqls, "share")
		qs = op.qs
		name = "client.QueryBatch"
	}
	if err != nil {
		return sample{}, nil, nil, err
	}
	tr.record(i, name, t0, time.Now(), nil)
	s := sample{class: op.class, hit: true}
	for _, r := range rs {
		s.out += len(r.Rows)
		if r.End != nil && r.End.Stats != nil {
			s.rows += int64(r.End.Stats.RowsScanned)
		}
		s.hit = s.hit && r.End != nil && r.End.FullCacheHit
	}
	return s, qs, rs, nil
}

// do is the closed loop: one connection, so that the process CPU time
// between a request and its response is that request's.
func (w *serveHTTP) do(i int, tr *tracer) (sample, *check, error) {
	s, qs, rs, err := w.request(0, i, tr)
	if err != nil {
		return s, nil, err
	}
	return s, w.checkOf(i, qs, rs), nil
}

func (w *serveHTTP) checkOf(i int, qs []qspec, rs []*client.Result) *check {
	return &check{order: i, fn: func() error {
		w.omu.Lock()
		defer w.omu.Unlock()
		if w.oracle == nil {
			w.oracle = newMilanOracle(w.milanT)
		}
		for j := range qs {
			if err := w.oracle.check(qs[j], clientRows(rs[j], qs[j].class == clsRegion)); err != nil {
				return err
			}
		}
		return nil
	}}
}

// openResult is the outcome of the open-loop phase.
type openResult struct {
	latMS  []float64 // completion minus due time
	lateUS []float64 // send time minus due time
	win    window    // errors and retained checks
}

// openLoop sends ops at a fixed rate regardless of completions: op k is
// due at start + k/rate, whichever connection is free sends it, and its
// latency counts from the due time, so a stall is charged to every
// request it delays.
func (w *serveHTTP) openLoop(rate float64, dur time.Duration, firstOp int) *openResult {
	n := int(rate * dur.Seconds())
	res := &openResult{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < httpConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				// Sleep overshoots by a millisecond or more here, which
				// would be charged to the server; yield-spin the last stretch.
				if d := time.Until(due); d > 2*time.Millisecond {
					time.Sleep(d - 2*time.Millisecond)
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				sent := time.Now()
				_, qs, rs, err := w.request(c, firstOp+k, nil)
				done := time.Now()
				mu.Lock()
				if err != nil {
					res.win.errs = append(res.win.errs, fmt.Errorf("open-loop op %d: %w", k, err))
				} else {
					res.latMS = append(res.latMS, float64(done.Sub(due).Nanoseconds())/1e6)
					res.lateUS = append(res.lateUS, float64(sent.Sub(due).Nanoseconds())/1e3)
					if k%retainEvery == 0 {
						res.win.checks = append(res.win.checks, *w.checkOf(k, qs, rs))
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return res
}

func (w *serveHTTP) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.poller.close()
	w.poller = nil
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, cl := range w.cls {
		keep(cl.CloseSession(ctx))
	}
	for _, hc := range w.hcs {
		hc.CloseIdleConnections()
	}
	if w.srv != nil {
		keep(w.srv.Shutdown(ctx))
	}
	keep(closeEngine(w.eng))
	w.cls, w.hcs, w.srv, w.eng, w.oracle = nil, nil, nil, nil, nil
	return first
}
