package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The smoke test runs every workload at a few percent of its recorded
// size, untraced once and traced twice, through the same entry point as
// the command. It checks the output contract (every name BENCHMARK.json
// lists is printed exactly once, with its unit), that the oracle agrees
// with the engine, that the traced pass's counts repeat, and — through
// realMain's own exit code — that no goroutine is left behind.
//
// Run it with `go test` in this directory; the benchmark is a module of
// its own, so the repository's `go test ./...` does not descend into it.

type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricLine = regexp.MustCompile(`^metric ([A-Za-z0-9][A-Za-z0-9_.-]{0,63}) +(-?[0-9.]+) ([A-Za-z0-9_/%.-]{1,16}) +n=[0-9]+$`)

// runOnce runs one workload in-process and returns its result object.
func runOnce(t *testing.T, workload string, trace string, want []struct{ Name, Unit string }) resultJSON {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace,
		"-scale", "0.01", "-out", t.TempDir(), "-max-wall", "60s"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	seen := map[string]string{}
	for _, l := range lines {
		if !strings.HasPrefix(l, "metric ") {
			continue
		}
		m := metricLine.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("%s trace %s: malformed metric line %q", workload, trace, l)
			continue
		}
		if _, dup := seen[m[1]]; dup {
			t.Errorf("%s trace %s: metric %s printed twice", workload, trace, m[1])
		}
		seen[m[1]] = m[3]
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line is not the result object: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	if len(seen) != len(want) || len(res.Metrics) != len(want) {
		t.Errorf("%s trace %s: %d metric lines, %d metrics in the result, BENCHMARK.json lists %d",
			workload, trace, len(seen), len(res.Metrics), len(want))
	}
	for _, m := range want {
		if seen[m.Name] != m.Unit || res.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("%s trace %s: metric %s has unit %q/%q, BENCHMARK.json says %q",
				workload, trace, m.Name, seen[m.Name], res.Metrics[m.Name].Unit, m.Unit)
		}
	}
	return res
}

// repeatable are the traced pass's counts: one client (or a fixed op
// budget) and no timers, so they must be identical from run to run.
var repeatable = []string{"loadgen.traced_ops", "storage.encoded_segments", "storage.run_folds_per_q",
	"cache.states_maintained_per_append", "cache.entries_invalidated", "cache.full_hit_share",
	"cache.hit_ratio", "cache.shared_hit_share", "cache.evictions_per_kq", "exec.rows_per_result", "exec.kernel_share"}

func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
	}
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			e2e := runOnce(t, w, "0", spec.EndToEnd)
			for name, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %g; it must never be 0", name, m.Value)
				}
			}
			a := runOnce(t, w, "1", spec.PerLayer)
			b := runOnce(t, w, "1", spec.PerLayer)
			for _, name := range repeatable {
				// Cache fingerprints embed the process-wide table epoch, so
				// inside one test process share_thrash's two runs hash their
				// regions onto different cache stripes and evict differently;
				// as separate processes (how the command runs) they agree.
				if w == "share_thrash" && (strings.HasPrefix(name, "cache.") || strings.HasPrefix(name, "exec.")) {
					continue
				}
				// ingest_mixed's subscription goroutine stores window states
				// concurrently with the load loop, so its eviction count can
				// differ by one or two.
				if w == "ingest_mixed" && name == "cache.evictions_per_kq" {
					continue
				}
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("traced count %s differs between two runs: %g vs %g", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

func TestMetricTablesMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	check := func(kind string, defs []metricDef, want []struct{ Name, Unit string }) {
		if len(defs) != len(want) {
			t.Errorf("%s: %d metrics in the benchmark, %d in BENCHMARK.json", kind, len(defs), len(want))
			return
		}
		for i, d := range defs {
			if d.name != want[i].Name || d.unit != want[i].Unit {
				t.Errorf("%s metric %d: benchmark has %s (%s), BENCHMARK.json has %s (%s)", kind, i, d.name, d.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndDefs, spec.EndToEnd)
	check("per_layer", perLayerDefs, spec.PerLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}
