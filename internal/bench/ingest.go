package bench

import (
	"context"
	"fmt"
	"text/tabwriter"
	"time"

	"sudaf/internal/core"
	"sudaf/internal/data"
)

// IngestResult is one delta-ratio measurement: the cost of keeping the
// warm state cache current via monoid delta maintenance (Append) versus
// recomputing the same cached states from scratch on the grown table.
type IngestResult struct {
	BaseRows  int
	DeltaRows int
	// MaintainMS times Append: delta partial states + ⊕-merge into every
	// warm cache entry. RecomputeMS times a cold share-mode pass over the
	// full post-append table for the same query set.
	MaintainMS  float64
	RecomputeMS float64
	Speedup     float64
	Migrated    int
	// States counts individual ⊕-folded state vectors: the eight warm
	// queries share one data-part entry, so expect few entries, many states.
	States int
}

// ingestDenoms are the delta:base ratios measured, largest delta first.
var ingestDenoms = []int{10, 100, 1000, 10000}

// Ingest measures incremental ingestion: a warm share-mode session
// absorbs an append batch of shrinking size. Delta maintenance does work
// proportional to the delta, recompute does work proportional to the
// whole table, so the margin must widen as the ratio shrinks — that gap
// is what makes a maintained state cache viable under streaming loads.
func (r *Runner) Ingest() []IngestResult {
	cfg := r.cfg
	rows := cfg.ConcRows
	ctx := context.Background()

	queries := make([]string, 0, len(concurrentAggs))
	for _, agg := range concurrentAggs {
		queries = append(queries, queryModel(2, agg))
	}

	fmt.Fprintf(r.out, "\n== INGEST: delta maintenance vs recompute, %d-row Milan base, %d warm queries, %d worker(s) ==\n",
		rows, len(queries), cfg.Workers)
	tw := tabwriter.NewWriter(r.out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "delta:base\tdelta rows\tmaintain(ms)\trecompute(ms)\tspeedup\tentries\tstates\n")

	var out []IngestResult
	for i, den := range ingestDenoms {
		deltaRows := rows / den
		if deltaRows < 1 {
			deltaRows = 1
		}
		// Fresh session per ratio: same base, same warm set, so cells are
		// comparable and earlier appends don't compound the base size.
		// Same label per ratio: re-registration replaces the previous
		// session's series, so a scraper follows the live one.
		s := core.NewSession(core.Options{Workers: cfg.Workers,
			Metrics: cfg.Metrics, MetricsLabel: "ingest"})
		must(s.Register(data.Milan(rows, cfg.MilanSquares, cfg.Seed+7)))
		for _, q := range queries {
			_, err := s.Query(q, core.ModeShare)
			must(err)
		}
		delta := data.Milan(deltaRows, cfg.MilanSquares, cfg.Seed+100+int64(i))

		start := time.Now()
		ares, err := s.Append(ctx, "milan_data", delta)
		must(err)
		maintain := time.Since(start)
		if ares.EntriesMigrated == 0 {
			panic(fmt.Sprintf("ingest bench: no entries migrated (events %v)", ares.Events))
		}

		// Recompute bar: the same states rebuilt from zero over the grown
		// table (what invalidation-on-append would force on first touch).
		s.ClearCache()
		start = time.Now()
		for _, q := range queries {
			_, err := s.Query(q, core.ModeShare)
			must(err)
		}
		recompute := time.Since(start)

		ir := IngestResult{
			BaseRows:    rows,
			DeltaRows:   deltaRows,
			MaintainMS:  float64(maintain.Microseconds()) / 1000,
			RecomputeMS: float64(recompute.Microseconds()) / 1000,
			Migrated:    ares.EntriesMigrated,
			States:      ares.StatesMaintained,
		}
		if ir.MaintainMS > 0 {
			ir.Speedup = ir.RecomputeMS / ir.MaintainMS
		}
		out = append(out, ir)
		fmt.Fprintf(tw, "1:%d\t%d\t%.2f\t%.2f\t%.1fx\t%d\t%d\n",
			den, ir.DeltaRows, ir.MaintainMS, ir.RecomputeMS, ir.Speedup, ir.Migrated, ir.States)
	}
	tw.Flush()
	return out
}
