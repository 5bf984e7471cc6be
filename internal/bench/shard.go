package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"sudaf/internal/core"
	"sudaf/internal/data"
)

// ShardResult is one scatter-gather measurement: a cold share-mode query
// sequence at a given shard count, and (for sharded rows) the same
// sequence rerun after a "shard reboot" — session cache dropped, ONE
// worker's partial cache dropped — so the other shards serve from their
// maintained partials and only 1/n of the rows rescan.
type ShardResult struct {
	Shards  int
	ColdMS  float64
	WarmMS  float64 // rebooted-shard rerun; 0 for the unsharded row
	Speedup float64 // ColdMS / WarmMS
}

// shardAggs is the query-model-2 sequence: distinct aggregates whose
// states overlap pairwise, so the sequence exercises both scatter
// compute and per-shard Theorem 4.1 probes.
var shardAggs = []string{"qm", "avg", "std", "sum", "min", "max"}

// Shard measures scatter-gather aggregation on the Milan workload.
//
// The cold rows are the scale-out shape: the same sequence at 1, 2 and
// 4 shards, each on a fresh session. In a 1-CPU container the per-shard
// scans serialize, so cold wall time stays roughly flat — the column
// records coordination overhead, not speedup.
//
// The headline is the rebooted-shard rerun: after the cold pass every
// worker holds its shard's partials, so dropping the session cache plus
// one worker's cache leaves n-1 shards answering ⊕-exact from cache
// while only the rebooted shard rescans its row range. That is the
// fault-recovery story sharding buys even without extra cores.
func (r *Runner) Shard() []ShardResult {
	cfg := r.cfg
	rows := cfg.ConcRows

	queries := make([]string, 0, len(shardAggs))
	for _, agg := range shardAggs {
		queries = append(queries, queryModel(2, agg))
	}
	runSeq := func(s *core.Session) time.Duration {
		start := time.Now()
		for _, q := range queries {
			_, err := s.Query(q, core.ModeShare)
			must(err)
		}
		return time.Since(start)
	}

	fmt.Fprintf(r.out, "\n== SHARD: scatter-gather over %d-row Milan, %d-query share-mode sequence, %d squares ==\n",
		rows, len(queries), cfg.MilanSquares)
	fmt.Fprintf(r.out, "(cold column is scale-out shape only: with one CPU the per-shard scans serialize;\n")
	fmt.Fprintf(r.out, " warm column reruns after rebooting one shard — the others answer from partials)\n")
	tw := tabwriter.NewWriter(r.out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "shards\tcold(ms)\trebooted-warm(ms)\tspeedup\n")

	var out []ShardResult
	for _, n := range []int{1, 2, 4} {
		s := core.NewSession(core.Options{Workers: 1, Shards: n,
			Metrics: cfg.Metrics, MetricsLabel: fmt.Sprintf("shard%d", n)})
		must(s.Register(data.Milan(rows, cfg.MilanSquares, cfg.Seed+13)))

		cold := runSeq(s)
		res := ShardResult{Shards: n, ColdMS: float64(cold.Microseconds()) / 1000}
		r.Results = append(r.Results, Measurement{Exp: "shard",
			Label: fmt.Sprintf("%dshard-cold", n), System: "sudaf-share", Seconds: cold.Seconds(), Rows: rows})

		if n > 1 {
			s.ClearCache()            // session cache: every query must replan
			s.ClearShardWorker(n - 1) // one shard reboots; peers stay warm
			if ex, err := s.ExplainQuery(queries[0], core.ModeShare); err == nil {
				for _, es := range ex.Shards {
					fmt.Fprintf(r.out, "  shard %d: rows=%d cache=%s\n",
						es.Index, es.Rows, strings.Join(es.Hits, ","))
				}
			}
			warm := runSeq(s)
			res.WarmMS = float64(warm.Microseconds()) / 1000
			if res.WarmMS > 0 {
				res.Speedup = res.ColdMS / res.WarmMS
			}
			r.Results = append(r.Results, Measurement{Exp: "shard",
				Label: fmt.Sprintf("%dshard-rebooted", n), System: "sudaf-share", Seconds: warm.Seconds(), Rows: rows / n})
		}

		if res.WarmMS > 0 {
			fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.1fx\n", res.Shards, res.ColdMS, res.WarmMS, res.Speedup)
		} else {
			fmt.Fprintf(tw, "%d\t%.2f\t-\t-\n", res.Shards, res.ColdMS)
		}
		if n == 4 {
			st := s.ShardStats()
			fmt.Fprintf(tw, "\t(4-shard stats: queries=%d scans=%d full_hits=%d rows_scanned=%d)\n",
				st.Queries, st.Scans, st.FullHits, st.RowsScanned)
		}
		out = append(out, res)
	}
	tw.Flush()
	return out
}
