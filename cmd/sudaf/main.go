// Command sudaf is an interactive shell for the SUDAF engine: load CSV
// tables, define UDAFs declaratively, and run SQL in any execution mode.
//
// Usage:
//
//	sudaf -load sales=sales.csv -load stores=stores.csv
//
// Commands inside the shell:
//
//	\udaf <name> <params> <expression>   define a UDAF, e.g.
//	                                     \udaf qm x sqrt(sum(x^2)/count())
//	\udafs                               list defined UDAFs
//	\mode baseline|rewrite|share         switch execution mode
//	\explain <name>                      show a UDAF's canonical form
//	\rewrite <sql>                       print the RQ-rewritten SQL
//	\views                               list materialized views
//	\materialize <name> <sql>            create a state view
//	\cache                               show cache statistics
//	\shards                              show scatter-gather shard statistics
//	\save                                persist tables + state cache to -data-dir
//	\space                               dump the symbolic sharing space
//	\tables                              list tables
//	\demo                                load a small demo dataset
//	\quit
//
// Anything else is executed as SQL. A statement of the form
// `EXPLAIN <query>` is not executed: it prints the canonical
// decomposition, the RQ rewriting, and (in share mode) the sharing
// provenance of every aggregation state against the live cache.
// Windowed statements attach OVER to one aggregate call; its frame
// governs the whole statement (docs/WINDOWS.md):
//
//	SELECT sum(price) OVER (ROWS 9 PRECEDING), avg(price) FROM sales
//	SELECT qm(price) OVER (ROWS 1000 TUMBLING) FROM sales
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"sudaf"
)

type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var loads loadFlags
	workers := flag.Int("workers", 0, "engine parallelism (0 = NumCPU)")
	shards := flag.Int("shards", 0, "scatter-gather shard count (0/1 = unsharded)")
	timeout := flag.Duration("timeout", 0, "per-query timeout (0 = none), e.g. 30s")
	numeric := flag.String("numeric", "permissive", "numeric fault policy: strict|permissive")
	skipBad := flag.Bool("skip-bad-rows", false, "skip and count malformed CSV rows instead of failing the load")
	dataDir := flag.String("data-dir", "", "persistence directory: restore tables + state cache at start, \\save writes them back")
	flag.Var(&loads, "load", "name=path.csv (repeatable)")
	flag.Parse()

	var pol sudaf.NumericPolicy
	switch *numeric {
	case "permissive":
		pol = sudaf.NumericPermissive
	case "strict":
		pol = sudaf.NumericStrict
	default:
		fatal("bad -numeric %q, want strict or permissive", *numeric)
	}

	eng := sudaf.Open(sudaf.Options{Workers: *workers, Shards: *shards,
		QueryTimeout: *timeout, Numeric: pol, DataDir: *dataDir})
	if *dataDir != "" {
		if err := eng.LoadError(); err != nil {
			fmt.Printf("note: partial restore from %s: %v\n", *dataDir, err)
		}
		if names := eng.TableNames(); len(names) > 0 {
			fmt.Printf("restored %d table(s) from %s: %s\n",
				len(names), *dataDir, strings.Join(names, ", "))
		}
	}
	for _, spec := range loads {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			fatal("bad -load %q, want name=path.csv", spec)
		}
		t, skipped, err := sudaf.LoadCSVWith(parts[0], parts[1], sudaf.CSVOptions{SkipBadRows: *skipBad})
		if err != nil {
			fatal("load %s: %v", spec, err)
		}
		if err := eng.Register(t); err != nil {
			fatal("register %s: %v", parts[0], err)
		}
		fmt.Printf("loaded %s: %d rows", parts[0], t.NumRows())
		if skipped > 0 {
			fmt.Printf(" (%d malformed rows skipped)", skipped)
		}
		fmt.Println()
	}

	mode := sudaf.Share
	fmt.Println("SUDAF shell — \\demo loads sample data, \\quit exits.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Printf("sudaf[%v]> ", mode)
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if runCommand(eng, line, &mode) {
				return
			}
			continue
		}
		if rest, ok := stripExplain(line); ok {
			ex, err := eng.Explain(rest, mode)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(ex)
			continue
		}
		start := time.Now()
		res, err := runQuery(eng, line, mode)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		for _, ev := range res.Events {
			fmt.Println("note:", ev)
		}
		printTable(res)
		fmt.Printf("(%d rows, %d base rows scanned, %v", res.Table.NumRows(),
			res.RowsScanned, time.Since(start).Round(time.Microsecond))
		if res.FullCacheHit {
			fmt.Printf(", full cache hit")
		}
		if res.UsedView != "" {
			fmt.Printf(", via view %s", res.UsedView)
		}
		fmt.Println(")")
	}
}

// stripExplain detects an `EXPLAIN <query>` statement (case-insensitive)
// and returns the inner query.
func stripExplain(line string) (string, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.EqualFold(fields[0], "explain") {
		return "", false
	}
	return strings.TrimSpace(line[len(fields[0]):]), true
}

// runQuery executes one statement under a context canceled by Ctrl-C, so
// an interrupt aborts the running query (scan/join/aggregate loops poll
// cooperatively) and drops back to the prompt instead of killing the
// shell. Signal delivery is restored before returning, so a Ctrl-C at the
// prompt still terminates the process normally.
func runQuery(eng *sudaf.Engine, sql string, mode sudaf.Mode) (*sudaf.Result, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return eng.QueryContext(ctx, sql, mode)
}

func runCommand(eng *sudaf.Engine, line string, mode *sudaf.Mode) (quit bool) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\mode":
		if len(fields) != 2 {
			fmt.Println("usage: \\mode baseline|rewrite|share")
			return
		}
		switch fields[1] {
		case "baseline":
			*mode = sudaf.Baseline
		case "rewrite":
			*mode = sudaf.Rewrite
		case "share":
			*mode = sudaf.Share
		default:
			fmt.Println("unknown mode", fields[1])
		}
	case "\\udaf":
		if len(fields) < 4 {
			fmt.Println("usage: \\udaf <name> <params,comma-separated> <expression>")
			return
		}
		name := fields[1]
		params := strings.Split(fields[2], ",")
		body := strings.Join(fields[3:], " ")
		if err := eng.DefineUDAF(name, params, body); err != nil {
			fmt.Println("error:", err)
			return
		}
		if form, ok := eng.ExplainUDAF(name); ok {
			fmt.Println(form)
		}
	case "\\explain":
		if len(fields) != 2 {
			fmt.Println("usage: \\explain <name>")
			return
		}
		if form, ok := eng.ExplainUDAF(fields[1]); ok {
			fmt.Println(form)
		} else {
			fmt.Println("unknown UDAF", fields[1])
		}
	case "\\materialize":
		if len(fields) < 3 {
			fmt.Println("usage: \\materialize <name> <sql>")
			return
		}
		if err := eng.Materialize(fields[1], strings.Join(fields[2:], " ")); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("materialized", fields[1])
		}
	case "\\cache":
		st := eng.CacheStats()
		fmt.Printf("lookups=%d exact=%d shared=%d sign=%d misses=%d evictions=%d\n",
			st.Lookups, st.ExactHits, st.SharedHits, st.SignHits, st.Misses, st.Evictions)
	case "\\shards":
		st := eng.ShardStats()
		if st.Shards == 0 {
			fmt.Println("sharding off (run with -shards N)")
			return
		}
		fmt.Printf("shards=%d tables=%d queries=%d fallbacks=%d scans=%d rows_scanned=%d appends_routed=%d\n",
			st.Shards, st.Tables, st.Queries, st.Fallbacks, st.Scans, st.RowsScanned, st.AppendsRouted)
	case "\\rewrite":
		if len(fields) < 2 {
			fmt.Println("usage: \\rewrite <sql>")
			return
		}
		out, err := eng.RewriteSQL(strings.Join(fields[1:], " "))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(out)
	case "\\save":
		if err := eng.Save(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("saved tables + state cache (run with -data-dir to pick the directory)")
		}
	case "\\tables":
		fmt.Println(strings.Join(eng.TableNames(), ", "))
	case "\\views":
		fmt.Println(strings.Join(eng.ViewNames(), ", "))
	case "\\space":
		fmt.Print(eng.SymbolicSpaceDump())
	case "\\udafs":
		fmt.Println(strings.Join(eng.UDAFNames(), ", "))
	case "\\demo":
		loadDemo(eng)
		fmt.Println("demo table 'sales' loaded (region, price, qty; 100k rows)")
	default:
		fmt.Println("unknown command", fields[0])
	}
	return false
}

func loadDemo(eng *sudaf.Engine) {
	rng := rand.New(rand.NewSource(1))
	t := sudaf.NewTable("sales",
		sudaf.NewColumn("region", sudaf.Int),
		sudaf.NewColumn("price", sudaf.Float),
		sudaf.NewColumn("qty", sudaf.Float))
	for i := 0; i < 100_000; i++ {
		t.Col("region").AppendInt(int64(rng.Intn(10)))
		t.Col("price").AppendFloat(1 + rng.Float64()*99)
		t.Col("qty").AppendFloat(float64(1 + rng.Intn(20)))
	}
	if err := eng.Register(t); err != nil {
		fmt.Println("error:", err)
	}
}

func printTable(res *sudaf.Result) {
	t := res.Table
	limit := t.NumRows()
	if limit > 25 {
		limit = 25
	}
	names := t.ColumnNames()
	fmt.Println(strings.Join(names, "\t"))
	for i := 0; i < limit; i++ {
		row := make([]string, len(t.Cols))
		for j, c := range t.Cols {
			row[j] = c.ValueString(i)
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	if limit < t.NumRows() {
		fmt.Printf("... (%d more rows)\n", t.NumRows()-limit)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
