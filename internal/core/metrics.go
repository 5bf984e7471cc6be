package core

import (
	"fmt"

	"sudaf/internal/obs"
	"sudaf/internal/storage"
)

// registerMetrics installs every session counter into the metrics
// registry as reader-backed samples, so the hot path bumps nothing but
// the atomics it already maintains and scrape time pays the read.
//
// The exported families (all documented in docs/OBSERVABILITY.md):
//
//	sudaf_queries_started_total / _completed_total / _failed_total / _queued_total
//	sudaf_rows_scanned_total
//	sudaf_query_seconds_total, sudaf_queue_wait_seconds_total
//	sudaf_query_duration_seconds            (histogram)
//	sudaf_engine_drain_seconds
//	sudaf_cache_lookups_total, sudaf_cache_hits_total{kind=...},
//	sudaf_cache_misses_total, sudaf_cache_evictions_total,
//	sudaf_cache_corruptions_total
//	sudaf_ingest_appends_total, sudaf_ingest_rows_total,
//	sudaf_ingest_entries_migrated_total / _invalidated_total,
//	sudaf_ingest_states_maintained_total,
//	sudaf_ingest_views_maintained_total / _invalidated_total
//	sudaf_shard_queries_total, sudaf_shard_fallbacks_total,
//	sudaf_shard_scans_total, sudaf_shard_full_hits_total,
//	sudaf_shard_state_hits_total, sudaf_shard_rows_scanned_total,
//	sudaf_shard_appends_routed_total, sudaf_shard_entries_maintained_total
//	sudaf_storage_encoded_segments_total, sudaf_storage_run_folds_total,
//	sudaf_storage_saves_total, sudaf_storage_tables_loaded_total,
//	sudaf_storage_cache_entries_loaded_total
//	sudaf_window_queries_total, sudaf_window_emits_total,
//	sudaf_window_rows_evicted_total, sudaf_window_fast_folds_total,
//	sudaf_window_refolds_total, sudaf_window_subscriptions_total
func (s *Session) registerMetrics(label string) {
	lbl := ""
	if label != "" {
		lbl = fmt.Sprintf("engine=%q", label)
	}
	withKind := func(kind string) string {
		pair := fmt.Sprintf("kind=%q", kind)
		if lbl == "" {
			return pair
		}
		return lbl + "," + pair
	}
	r := s.metrics

	// Query path.
	r.CounterFunc("sudaf_queries_started_total", lbl,
		"Queries admitted to execution.", s.queriesStarted.Load)
	r.CounterFunc("sudaf_queries_completed_total", lbl,
		"Queries that returned a result.", s.queriesCompleted.Load)
	r.CounterFunc("sudaf_queries_failed_total", lbl,
		"Queries that returned an error (including cancellation).", s.queriesFailed.Load)
	r.CounterFunc("sudaf_queries_queued_total", lbl,
		"Queries that waited for an admission slot.", s.queriesQueued.Load)
	r.CounterFunc("sudaf_rows_scanned_total", lbl,
		"Joined base rows read across all queries.", s.rowsScanned.Load)
	r.GaugeFunc("sudaf_query_seconds_total", lbl,
		"Total query wall time in seconds (admission wait excluded).",
		func() float64 { return float64(s.queryNanos.Load()) / 1e9 })
	r.GaugeFunc("sudaf_queue_wait_seconds_total", lbl,
		"Total admission-queue wait in seconds.",
		func() float64 { return float64(s.queueNanos.Load()) / 1e9 })
	s.queryHist = r.Histogram("sudaf_query_duration_seconds", lbl,
		"Per-query wall time distribution in seconds.", nil)
	r.GaugeFunc("sudaf_engine_drain_seconds", lbl,
		"How long the completed Close drain took (0 until the engine is closed).",
		func() float64 { return s.DrainDuration().Seconds() })

	// State cache. Readers go through the current cache snapshot, so a
	// ClearCache resets these series along with the cache itself.
	r.CounterFunc("sudaf_cache_lookups_total", lbl,
		"State lookup attempts against the dynamic cache.",
		func() int64 { return s.CacheStats().Lookups })
	r.CounterFunc("sudaf_cache_hits_total", withKind("exact"),
		"Cache hits by kind: exact key, Theorem 4.1 shared, sign-split.",
		func() int64 { return s.CacheStats().ExactHits })
	r.CounterFunc("sudaf_cache_hits_total", withKind("shared"),
		"Cache hits by kind: exact key, Theorem 4.1 shared, sign-split.",
		func() int64 { return s.CacheStats().SharedHits })
	r.CounterFunc("sudaf_cache_hits_total", withKind("sign"),
		"Cache hits by kind: exact key, Theorem 4.1 shared, sign-split.",
		func() int64 { return s.CacheStats().SignHits })
	r.CounterFunc("sudaf_cache_misses_total", lbl,
		"State lookups that missed.",
		func() int64 { return s.CacheStats().Misses })
	r.CounterFunc("sudaf_cache_evictions_total", lbl,
		"Cache entries evicted under the byte budget.",
		func() int64 { return s.CacheStats().Evictions })
	r.CounterFunc("sudaf_cache_final_hits_total", lbl,
		"Hardcoded terminating-function columns served from their memo instead of solved.",
		func() int64 { return s.CacheStats().FinalHits })
	r.CounterFunc("sudaf_cache_corruptions_total", lbl,
		"Cached states dropped after failing their integrity checksum.",
		func() int64 { return s.CacheStats().Corruptions })

	// Ingestion.
	r.CounterFunc("sudaf_ingest_appends_total", lbl,
		"Successful append batches.", s.appends.Load)
	r.CounterFunc("sudaf_ingest_rows_total", lbl,
		"Rows ingested across all appends.", s.rowsAppended.Load)
	r.CounterFunc("sudaf_ingest_entries_migrated_total", lbl,
		"Cache entries delta-maintained across appends.", s.entriesMigrated.Load)
	r.CounterFunc("sudaf_ingest_states_maintained_total", lbl,
		"Cached states delta-folded across appends.", s.statesMaintained.Load)
	r.CounterFunc("sudaf_ingest_entries_invalidated_total", lbl,
		"Cache entries dropped because they could not be delta-maintained.", s.entriesInvalidated.Load)
	r.CounterFunc("sudaf_ingest_views_maintained_total", lbl,
		"Materialized views delta-folded across appends.", s.viewsMaintained.Load)
	r.CounterFunc("sudaf_ingest_views_invalidated_total", lbl,
		"Materialized views dropped during appends.", s.viewsInvalidated.Load)

	// Scatter-gather sharding (all zero on an unsharded engine). Readers
	// go through ShardStats, which sums the worker atomics at scrape time.
	r.CounterFunc("sudaf_shard_queries_total", lbl,
		"Queries executed scatter-gather across the shard workers.",
		func() int64 { return s.ShardStats().Queries })
	r.CounterFunc("sudaf_shard_fallbacks_total", lbl,
		"Shard-eligible queries that ran single-engine instead (epoch mismatch, view rewrite, subquery temp).",
		func() int64 { return s.ShardStats().Fallbacks })
	r.CounterFunc("sudaf_shard_scans_total", lbl,
		"Per-shard worker scans, including full cache hits.",
		func() int64 { return s.ShardStats().Scans })
	r.CounterFunc("sudaf_shard_full_hits_total", lbl,
		"Worker scans answered entirely from the worker's private cache.",
		func() int64 { return s.ShardStats().FullHits })
	r.CounterFunc("sudaf_shard_state_hits_total", lbl,
		"Individual aggregation states served from worker caches.",
		func() int64 { return s.ShardStats().StateHits })
	r.CounterFunc("sudaf_shard_rows_scanned_total", lbl,
		"Base rows read by per-shard partial recomputations.",
		func() int64 { return s.ShardStats().RowsScanned })
	r.CounterFunc("sudaf_shard_appends_routed_total", lbl,
		"Append batches routed to their owning shard.",
		func() int64 { return s.ShardStats().AppendsRouted })
	r.CounterFunc("sudaf_shard_entries_maintained_total", lbl,
		"Worker-cache entries ⊕-maintained in place across routed appends.",
		func() int64 { return s.ShardStats().EntriesMaintained })

	// Storage engine v2: segment encodings, run-folds and persistence.
	// The first two read process-wide storage counters (encodings are
	// built by tables, not sessions); the rest are per-session.
	r.CounterFunc("sudaf_storage_encoded_segments_total", lbl,
		"Column segments given an acceleration encoding (RLE or FOR) at seal time.",
		storage.EncodedSegmentsBuilt)
	r.CounterFunc("sudaf_storage_run_folds_total", lbl,
		"Morsel aggregation tasks answered by folding encoded runs instead of scanning dense values.",
		storage.RunFoldsExecuted)
	r.CounterFunc("sudaf_storage_saves_total", lbl,
		"Successful Session.Save persistence snapshots.", s.persistSaves.Load)
	r.CounterFunc("sudaf_storage_tables_loaded_total", lbl,
		"Tables restored from DataDir segment files at session start.", s.persistTablesLoaded.Load)
	r.CounterFunc("sudaf_storage_cache_entries_loaded_total", lbl,
		"State-cache entries restored from the DataDir snapshot at session start.", s.persistEntriesLoaded.Load)

	// Sliding-window streaming: one-shot OVER queries and Subscribe
	// streams share these counters (docs/WINDOWS.md).
	r.CounterFunc("sudaf_window_queries_total", lbl,
		"One-shot windowed (OVER) queries executed.", s.windowQueries.Load)
	r.CounterFunc("sudaf_window_emits_total", lbl,
		"Window emissions produced, across one-shot queries and subscriptions.", s.windowEmits.Load)
	r.CounterFunc("sudaf_window_rows_evicted_total", lbl,
		"Rows evicted from sliding two-stacks folds.", s.windowRowsEvicted.Load)
	r.CounterFunc("sudaf_window_fast_folds_total", lbl,
		"Window values served by the O(1) two-stacks combination.", s.windowFastFolds.Load)
	r.CounterFunc("sudaf_window_refolds_total", lbl,
		"Window values that fell back to the chunked in-order refold.", s.windowRefolds.Load)
	r.CounterFunc("sudaf_window_subscriptions_total", lbl,
		"Continuous-query subscriptions opened via Subscribe.", s.windowSubscriptions.Load)
}

// ServeMetrics starts an HTTP endpoint on addr serving the session's
// registry: /metrics (Prometheus text), /debug/vars (expvar) and
// /debug/pprof. Close the returned server to stop it.
func (s *Session) ServeMetrics(addr string) (*obs.MetricsServer, error) {
	return obs.ServeMetrics(addr, s.metrics)
}
