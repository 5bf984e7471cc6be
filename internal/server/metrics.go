package server

import (
	"fmt"

	"sudaf/internal/obs"
)

// registerMetrics installs the serving-layer families into the metrics
// registry alongside the engine's own. Like the engine families, every
// sample is reader-backed: the request path bumps only atomics and
// scrape time pays the reads.
//
// The exported families (all documented in docs/SERVING.md):
//
//	sudaf_server_requests_total{kind=...}
//	sudaf_server_batch_requests_total, sudaf_server_batch_queries_total
//	sudaf_server_subscribe_emits_total, sudaf_server_subscriptions_active
//	sudaf_server_frame_bytes_total
//	sudaf_server_shed_total{reason=...}
//	sudaf_server_inflight, sudaf_server_queue_depth
//	sudaf_server_sessions_open, sudaf_server_sessions_opened_total
//	sudaf_server_connections_open
//	sudaf_server_drain_seconds
func (s *Server) registerMetrics(r *obs.Registry, label string) {
	lbl := ""
	if label != "" {
		lbl = fmt.Sprintf("server=%q", label)
	}
	with := func(key, val string) string {
		pair := fmt.Sprintf("%s=%q", key, val)
		if lbl == "" {
			return pair
		}
		return lbl + "," + pair
	}

	r.CounterFunc("sudaf_server_requests_total", with("kind", "query"),
		"Requests accepted for execution, by kind.", s.queryReqs.Load)
	r.CounterFunc("sudaf_server_requests_total", with("kind", "append"),
		"Requests accepted for execution, by kind.", s.appendReqs.Load)
	r.CounterFunc("sudaf_server_requests_total", with("kind", "batch"),
		"Requests accepted for execution, by kind.", s.batchReqs.Load)
	r.CounterFunc("sudaf_server_batch_requests_total", lbl,
		"Multi-query batches accepted for execution (each holds one server slot).",
		s.batchReqs.Load)
	r.CounterFunc("sudaf_server_batch_queries_total", lbl,
		"Queries submitted inside accepted batches.", s.batchQueries.Load)
	r.CounterFunc("sudaf_server_requests_total", with("kind", "subscribe"),
		"Requests accepted for execution, by kind.", s.subscribeReqs.Load)
	r.CounterFunc("sudaf_server_subscribe_emits_total", lbl,
		"Window emissions streamed to /v1/subscribe clients.", s.subscribeEmits.Load)
	r.CounterFunc("sudaf_server_frame_bytes_total", lbl,
		"JSON payload bytes written in result frames (length prefixes and newlines excluded).",
		s.frameBytes.Load)
	r.GaugeFunc("sudaf_server_subscriptions_active", lbl,
		"Subscribe streams currently open.",
		func() float64 { return float64(s.subscribeActive.Load()) })
	r.CounterFunc("sudaf_server_shed_total", with("reason", "queue_full"),
		"Requests shed before execution, by reason: global queue full, per-session cap, server draining.",
		s.shedQueue.Load)
	r.CounterFunc("sudaf_server_shed_total", with("reason", "session_cap"),
		"Requests shed before execution, by reason: global queue full, per-session cap, server draining.",
		s.shedSession.Load)
	r.CounterFunc("sudaf_server_shed_total", with("reason", "draining"),
		"Requests shed before execution, by reason: global queue full, per-session cap, server draining.",
		s.shedDraining.Load)
	r.GaugeFunc("sudaf_server_inflight", lbl,
		"Requests currently executing (holding a global slot).",
		func() float64 { return float64(len(s.slots)) })
	r.GaugeFunc("sudaf_server_queue_depth", lbl,
		"Requests waiting for a global slot right now.",
		func() float64 { return float64(s.queue.Len()) })
	r.GaugeFunc("sudaf_server_sessions_open", lbl,
		"Client sessions currently open.",
		func() float64 { return float64(s.sessions.numOpen()) })
	r.CounterFunc("sudaf_server_sessions_opened_total", lbl,
		"Client sessions opened over the server's lifetime.",
		s.sessions.opened.Load)
	r.GaugeFunc("sudaf_server_connections_open", lbl,
		"TCP connections currently open (0 until the chaos listener is serving).",
		func() float64 { return float64(s.connsOpen.Load()) })
	r.GaugeFunc("sudaf_server_drain_seconds", lbl,
		"How long the completed server Shutdown drain took (0 until shut down).",
		func() float64 { return s.gate.DrainDuration().Seconds() })
}
