package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"sudaf"
	"sudaf/internal/storage"
)

// Each workload's layers method adds the per-layer metrics that only it
// can measure: counters the engine already exposes, read before and
// after the traced pass, and direct probes on the workload's own inputs.

func classSeconds(win *window, class int) (secs float64, n int) {
	for i := range win.samples {
		if win.samples[i].class == class {
			secs += win.samples[i].ms / 1e3
			n++
		}
	}
	return secs, n
}

func (w *scanCold) layers(r *report, win0, win1 *window, tr *tracer) error {
	// Base rows each class reads per query, known from the generated
	// tables (the join reads the whole fact table, whatever survives).
	base := map[int]int{clsGrand: w.milanT.NumRows(), clsModel2: w.milanT.NumRows(),
		clsJoin: w.factRows, clsEnc: w.encT.NumRows()}
	for class, name := range map[int]string{clsGrand: "m1", clsModel2: "m2", clsJoin: "m3", clsEnc: "enc"} {
		if secs, n := classSeconds(win1, class); secs > 0 {
			r.set("exec.rows_per_s_"+name, float64(base[class])*float64(n)/secs, n)
		}
	}
	// Run-folds per enc query: replay the enc ops around the counter.
	var encQs, m2Qs []qspec
	for _, q := range w.seq {
		switch q.class {
		case clsEnc:
			encQs = append(encQs, q)
		case clsModel2:
			if len(m2Qs) < len(as1Aggs) {
				m2Qs = append(m2Qs, q)
			}
		}
	}
	f0 := storage.RunFoldsExecuted()
	for _, q := range encQs {
		if _, err := w.eng.Query(q.sql, sudaf.Rewrite); err != nil {
			return err
		}
	}
	r.set("storage.run_folds_per_q", float64(storage.RunFoldsExecuted()-f0)/float64(len(encQs)), len(encQs))
	return probeShards(r, w.eng, genMilan(w.milanT.NumRows(), w.cfg.seed), m2Qs)
}

func (w *shareWL) layers(r *report, win0, win1 *window, tr *tracer) error {
	probeSketch(r, w.milanT, w.regs[0][0], w.regs[0][1])
	return nil
}

// finish waits for the subscription to emit every append of the window.
func (w *ingestMixed) finish(win *window) error {
	lags, err := w.emitLags(win)
	w.lags = lags
	return err
}

func (w *ingestMixed) layers(r *report, win0, win1 *window, tr *tracer) error {
	st := w.eng.IngestStats()
	if st.Appends > 0 {
		r.set("cache.states_maintained_per_append", float64(st.StatesMaintained)/float64(st.Appends), int(st.Appends))
	}
	r.set("cache.entries_invalidated", float64(st.EntriesInvalidated), int(st.Appends))
	if emits := promValue(w.eng, "sudaf_window_emits_total"); emits > 0 {
		r.set("window.refolds_per_emit", promValue(w.eng, "sudaf_window_refolds_total")/emits, int(emits))
	}
	r.set("window.emit_lag_p95_ms", percentile(w.lags, 95), len(w.lags))
	if err := probeStorage(r, w.milanT, w.pool[0], w.cfg.outDir); err != nil {
		return err
	}
	return probeWindow(r, w.milanT.Col(trafficCol).F)
}

// untraced reports ingest_mixed's user-visible numbers from the untraced
// window.
func (w *ingestMixed) untraced(_ *config, r *report, win *window, _ io.Writer) (attempted, failed int) {
	app := win.latencies(ofClass(clsAppend))
	r.set("append_rows_per_s", float64(len(app)*deltaRows)/win.cpu.Seconds(), len(app))
	r.set("append_p50_ms", percentile(app, 50), len(app))
	r.set("append_p95_ms", percentile(app, 95), len(app))
	r.set("emit_lag_p50_ms", percentile(w.lags, 50), len(w.lags))
	r.set("restore_s", median(w.restores), len(w.restores))
	return 0, 0
}

// untraced is serve_http's open-loop half: a fixed request rate on the
// same two connections, each request timed from its due time.
func (w *serveHTTP) untraced(cfg *config, r *report, _ *window, stderr io.Writer) (attempted, failed int) {
	res := w.openLoop(cfg.openRate, time.Duration(0.3*cfg.seconds*float64(time.Second)), 1<<20)
	failed = settleWindow(w, &res.win, stderr)
	r.set("open_p50_ms", percentile(res.latMS, 50), len(res.latMS))
	r.set("open_p95_ms", percentile(res.latMS, 95), len(res.latMS))
	r.set("loadgen.late_p95_us", percentile(res.lateUS, 95), len(res.lateUS))
	return len(res.latMS) + len(res.win.errs), failed
}

func (w *serveHTTP) layers(r *report, win0, win1 *window, tr *tracer) error {
	// The same prepared grand aggregates in-process: their engine spans
	// stand in for the ones HTTP hides, and the difference between the
	// two medians is what the serving layer adds.
	var inproc []float64
	for k := 0; k < 2000; k++ {
		q := grandQuery(exactAggs[k%len(exactAggs)])
		t0 := time.Now()
		res, err := w.eng.QueryContext(context.Background(), q.sql, sudaf.Share)
		if err != nil {
			return err
		}
		end := time.Now()
		inproc = append(inproc, float64(end.Sub(t0).Nanoseconds())/1e3)
		tr.record(1<<21+k, "QueryContext", t0, end, res.Trace)
	}
	http := win1.latencies(ofClass(clsGrand)) // same traced engine as the in-process side
	if len(http) == 0 {
		return fmt.Errorf("no prepared query completed over HTTP")
	}
	r.set("server.overhead_us", percentile(http, 50)*1e3-median(inproc), len(http))
	spanLayers(r, tr)

	region, err := w.eng.Query(regionQuery("avg", w.regs[0][0], w.regs[0][1]).sql, sudaf.Share)
	if err != nil {
		return err
	}
	if err := probeFrames(r, region.Table); err != nil {
		return err
	}
	shed := promValue(w.eng, "sudaf_server_shed_total")
	reqs := promValue(w.eng, "sudaf_server_requests_total")
	if reqs+shed > 0 {
		r.set("server.shed_share", shed/(reqs+shed), int(reqs+shed))
	}
	w.poller.close()
	r.set("server.queue_depth_max", w.poller.max, w.poller.polls)
	return nil
}

// spanLayers reports what the engine's own spans (Result.Trace) show,
// as the mean cost per traced query.
func spanLayers(r *report, tr *tracer) {
	nq := tr.queries
	r.set("sqlparse.parse_us", tr.perQueryUS("parse", false), nq)
	r.set("core.plan_us", tr.perQueryUS("plan", false), nq)
	r.set("core.orchestration_us", tr.perQueryUS("query", true), nq)
	r.set("canonical.canonicalize_us", tr.perQueryUS("canonicalize", false), nq)
	r.set("core.finisher_us", tr.perQueryUS("finisher", false), nq)
	r.set("cache.lookup_us", tr.perQueryUS("sharing-lookup", false), nq)
	r.set("cache.store_us", tr.perQueryUS("cache-store", false), nq)
	scanUS := tr.perQueryUS("scan/agg", false) + tr.perQueryUS("scan/project", false)
	r.set("exec.scan_ms", scanUS/1e3, nq)
	if total := tr.perQueryUS("query", false); total > 0 {
		r.set("exec.scan_share", scanUS/total, nq)
	}
}

// queuePoller samples the server's admission queue depth from the
// metrics registry while the traced pass runs.
type queuePoller struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	max   float64
	polls int
}

func startQueuePoller(eng *sudaf.Engine) *queuePoller {
	p := &queuePoller{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if d := promValue(eng, "sudaf_server_queue_depth"); d > p.max {
					p.max = d
				}
				p.polls++
			}
		}
	}()
	return p
}

// close stops the poller; max and polls are safe to read afterwards.
func (p *queuePoller) close() {
	if p == nil {
		return
	}
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
}
