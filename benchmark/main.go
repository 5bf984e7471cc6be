// Command sudaf-perf is the repository's performance benchmark: five
// seeded workloads over the SUDAF engine, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one, every retained
// answer checked against an independent oracle. README.md in this
// directory is the metric and workload dictionary; BENCHMARK.json at the
// repository root is the driver's contract.
//
// One invocation measures one workload:
//
//	sudaf-perf --workload share_zipf --seed 1 --seconds 10 --trace 0
//
// It starts no child process, serves HTTP in-process, closes every engine,
// subscription, listener and temporary directory it opened, checks that
// its goroutines have gone, and prints the driver's result object as the
// last line of standard output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func parseTraceOps(s string) (map[string]int, error) {
	out := map[string]int{}
	for _, kv := range strings.Split(s, ",") {
		if kv == "" {
			continue
		}
		name, val, ok := strings.Cut(kv, "=")
		n, err := strconv.Atoi(val)
		if !ok || err != nil || n < 1 {
			return nil, fmt.Errorf("bad -trace-ops entry %q", kv)
		}
		out[name] = n
	}
	return out, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sudaf-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var trace int
	var traceOps, aaReport, bounds string
	var maxWall time.Duration
	fs.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the generated tables and op sequences")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced")
	fs.Float64Var(&cfg.scale, "scale", 1, "table-size multiplier (the smoke test uses a few percent)")
	fs.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for traces and temporary data directories")
	fs.Int64Var(&cfg.thrashCacheBytes, "thrash-cache-bytes", 2<<20, "share_thrash: the engine's CacheBytes")
	fs.Float64Var(&cfg.openRate, "open-rate", 1500, "serve_http: open-loop request rate, 1/s")
	fs.Float64Var(&cfg.calibRef, "calib-ref", 0, "CPU-seconds one calibration pass takes on the reference machine (0: report unscaled times)")
	fs.StringVar(&traceOps, "trace-ops", "", "traced-pass op counts, workload=N,...")
	fs.DurationVar(&maxWall, "max-wall", 150*time.Second, "watchdog: exit non-zero if the run takes longer")
	fs.StringVar(&aaReport, "aa-report", "", "summarise a file of result lines (see aa.sh) instead of running")
	fs.StringVar(&bounds, "bounds", "BENCHMARK.json", "with -aa-report: where the bounds are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if aaReport != "" {
		if err := aaSummary(stdout, aaReport, bounds); err != nil {
			fmt.Fprintln(stderr, "sudaf-perf:", err)
			return 1
		}
		return 0
	}
	var err error
	if cfg.traceOps, err = parseTraceOps(traceOps); err != nil {
		fmt.Fprintln(stderr, "sudaf-perf:", err)
		return 2
	}
	cfg.trace = trace != 0
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		fmt.Fprintln(stderr, "sudaf-perf: -seconds and -scale must be positive")
		return 2
	}

	// Load shape: one process, one running thread (see calibrate.go).
	runtime.GOMAXPROCS(1)
	baseline := runtime.NumGoroutine()

	// The watchdog turns a hang into a non-zero exit. It is a timer, not
	// a goroutine, so it does not disturb the goroutine count.
	watchdog := time.AfterFunc(maxWall, func() {
		fmt.Fprintf(stderr, "sudaf-perf: exceeded -max-wall %v; goroutines:\n", maxWall)
		_ = pprof.Lookup("goroutine").WriteTo(stderr, 1)
		os.Exit(3)
	})
	defer watchdog.Stop()

	code := 0
	if err := runWorkload(cfg, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "sudaf-perf:", err)
		code = 1
	}
	if left := settle(baseline); left > 0 {
		fmt.Fprintf(stderr, "sudaf-perf: %d goroutine(s) still running at exit:\n", left)
		_ = pprof.Lookup("goroutine").WriteTo(stderr, 1)
		if code == 0 {
			code = 4
		}
	}
	fmt.Fprintf(stderr, "sudaf-perf: done, exit %d\n", code)
	return code
}

// settle waits for the goroutine count to return to its starting value
// and reports how many goroutines are left over.
func settle(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		left := runtime.NumGoroutine() - baseline
		if left <= 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(5 * time.Millisecond)
	}
}
