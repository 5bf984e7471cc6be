package main

import (
	"fmt"
	"math/rand"

	"sudaf"
	"sudaf/internal/data"
)

const (
	milanTable  = "milan_data"
	trafficCol  = "internet_traffic"
	encTable    = "enc_data"
	tpcdsScale  = 2
	deltaRows   = 2000
	windowFrame = 100000
)

// Aggregate lists from the paper's evaluation (internal/bench keeps its
// own copies for the figure harness).
var (
	// fig10Aggs are the 16 aggregates of Figure 10's random sequence.
	fig10Aggs = []string{"min", "max", "sum", "avg", "hm", "qm", "cm", "gm", "std", "var",
		"skewness", "kurtosis", "count", "approx_median", "approx_first_quantile", "approx_third_quantile"}
	// exactAggs are fig10Aggs without the moment-sketch quantiles, whose
	// solver costs ~0.5 ms per group and would bury the serving layer.
	exactAggs = fig10Aggs[:13]
	// as1Aggs is the paper's sequence AS1.
	as1Aggs = []string{"cm", "qm", "gm", "hm", "min", "max", "count", "std", "var", "sum", "avg"}
	// mixAggs is the 8-aggregate model-2 mix whose states overlap heavily.
	mixAggs = []string{"qm", "std", "var", "avg", "cm", "apm", "sum", "count"}
	// encAggs fold over the run-heavy int column.
	encAggs = []string{"sum", "min", "max", "count"}
)

func sketchQuantile(agg string) (float64, bool) {
	switch agg {
	case "approx_median":
		return 0.5, true
	case "approx_first_quantile":
		return 0.25, true
	case "approx_third_quantile":
		return 0.75, true
	}
	return 0, false
}

func aggCall(agg, col string) string {
	if agg == "count" {
		return "count(*)"
	}
	return agg + "(" + col + ")"
}

// Query classes. They index latency buckets and pick the oracle.
const (
	clsGrand  = iota // aggregate over all of milan_data
	clsModel2        // GROUP BY square_id ORDER BY square_id LIMIT 20
	clsRegion        // WHERE square_id in [lo, hi) GROUP BY square_id
	clsJoin          // five-way TPC-DS q7-shape join
	clsEnc           // aggregate over enc_data.qty
	clsAppend        // not a query: one Append
	clsBatch         // /v1/batch of region queries
	numClasses
)

var className = [numClasses]string{"grand", "model2", "region", "join", "enc", "append", "batch"}

// qspec is one query of a workload's sequence: the SQL handed to the
// engine and what the oracle needs to check the answer.
type qspec struct {
	class  int
	agg    string
	lo, hi int64 // clsRegion: square_id range
	sql    string
}

func grandQuery(agg string) qspec {
	return qspec{class: clsGrand, agg: agg,
		sql: "SELECT " + aggCall(agg, trafficCol) + " FROM " + milanTable}
}

func model2Query(agg string) qspec {
	return qspec{class: clsModel2, agg: agg,
		sql: "SELECT square_id, " + aggCall(agg, trafficCol) + " FROM " + milanTable +
			" GROUP BY square_id ORDER BY square_id LIMIT 20"}
}

func regionQuery(agg string, lo, hi int64) qspec {
	return qspec{class: clsRegion, agg: agg, lo: lo, hi: hi,
		sql: fmt.Sprintf("SELECT square_id, %s FROM %s WHERE square_id >= %d and square_id < %d GROUP BY square_id",
			aggCall(agg, trafficCol), milanTable, lo, hi)}
}

func joinQuery(agg string) qspec {
	return qspec{class: clsJoin, agg: agg, sql: `SELECT i_item_id, ` +
		aggCall(agg, "ss_quantity") + ` agg1, ` + aggCall(agg, "ss_list_price") + ` agg2, ` +
		aggCall(agg, "ss_coupon_amt") + ` agg3, ` + aggCall(agg, "ss_sales_price") + ` agg4
FROM store_sales, customer_demographics, date_dim, item, promotion
WHERE ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk and
	ss_cdemo_sk = cd_demo_sk and ss_promo_sk = p_promo_sk and
	cd_gender = 'M' and cd_marital_status = 'S' and
	cd_education_status = 'College' and
	(p_channel_email = 'N' or p_channel_event = 'N') and d_year = 2000
GROUP BY i_item_id ORDER BY i_item_id LIMIT 100`}
}

func encQuery(agg string) qspec {
	return qspec{class: clsEnc, agg: agg, sql: "SELECT " + aggCall(agg, "qty") + " FROM " + encTable}
}

// windowSQL is ingest_mixed's live subscription.
var windowSQL = fmt.Sprintf("SELECT max(%s) OVER (ROWS %d PRECEDING) FROM %s", trafficCol, windowFrame, milanTable)

// milanSquares keeps ~100+ rows per square at every scale, so that moment
// ratios (skewness, kurtosis) are well conditioned in every group.
func milanSquares(rows int) int {
	s := rows / 100
	if s > 10000 {
		s = 10000
	}
	if s < 10 {
		s = 10
	}
	return s
}

func genMilan(rows int, seed int64) *sudaf.Table {
	return data.Milan(rows, milanSquares(rows), seed)
}

// genEnc builds the run-heavy table: qty holds long constant integer
// runs (RLE folds engage), noise is high-entropy (they decline).
func genEnc(rows int, seed int64) *sudaf.Table {
	rng := rand.New(rand.NewSource(seed))
	qty := sudaf.NewColumn("qty", sudaf.Int)
	noise := sudaf.NewColumn("noise", sudaf.Float)
	for i := 0; i < rows; {
		run := 256 + rng.Intn(1792)
		v := int64(1 + rng.Intn(9))
		for j := 0; j < run && i < rows; j++ {
			qty.AppendInt(v)
			noise.AppendFloat(rng.Float64() * 1000)
			i++
		}
	}
	return sudaf.NewTable(encTable, qty, noise)
}

// regions splits [0, squares) into d contiguous square_id ranges.
func regions(squares, d int) [][2]int64 {
	if d > squares {
		d = squares
	}
	out := make([][2]int64, d)
	for r := 0; r < d; r++ {
		out[r] = [2]int64{int64(r * squares / d), int64((r + 1) * squares / d)}
	}
	return out
}

// shareSequence is the op stream of share_zipf and share_thrash: blocks
// of 80 queries in which each of aggs' members appears once as a grand
// aggregate and four times over a region, shuffled by the seed. The
// blocks keep every class's share exact in any prefix of whole blocks, so
// throughput does not depend on how many expensive aggregates the seed
// happened to draw. Regions are drawn zipf(s=1.1); region r has rank r.
func shareSequence(rng *rand.Rand, aggs []string, regs [][2]int64, blocks int) []qspec {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(regs)-1))
	seq := make([]qspec, 0, blocks*5*len(aggs))
	for b := 0; b < blocks; b++ {
		start := len(seq)
		for _, a := range aggs {
			seq = append(seq, grandQuery(a))
			for k := 0; k < 4; k++ {
				r := regs[zipf.Uint64()]
				seq = append(seq, regionQuery(a, r[0], r[1]))
			}
		}
		blk := seq[start:]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return seq
}

// warmRegionSQL computes, in one scan of a region, every state the 16
// aggregates need (power sums to 4, Σ1/x, Σln x, min, max, count and the
// moment sketch), without running the quantile solver.
func warmRegionSQL(lo, hi int64) string {
	return fmt.Sprintf("SELECT square_id, min(%[1]s), max(%[1]s), hm(%[1]s), gm(%[1]s), kurtosis(%[1]s), moment_sketch(%[1]s) FROM %[2]s WHERE square_id >= %[3]d and square_id < %[4]d GROUP BY square_id",
		trafficCol, milanTable, lo, hi)
}

var warmGrandSQL = fmt.Sprintf("SELECT min(%[1]s), max(%[1]s), hm(%[1]s), gm(%[1]s), kurtosis(%[1]s), moment_sketch(%[1]s) FROM %[2]s",
	trafficCol, milanTable)
