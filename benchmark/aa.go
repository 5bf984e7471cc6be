package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// aaSummary reads the file aa.sh writes — one line per run, the workload
// name, a tab, and the run's result object — and prints, for every
// workload and metric, the median, the quartiles and the relative spread
// (Q3−Q1)/median next to the bound BENCHMARK.json gives the metric. The
// quartiles are Python's statistics.quantiles(n=4), as the driver uses.
func aaSummary(w io.Writer, path, boundsPath string) error {
	bounds := map[string]float64{}
	if raw, err := os.ReadFile(boundsPath); err == nil {
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("%s: %w", boundsPath, err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	vals := map[string]map[string][]float64{} // workload → metric → values
	units := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, js, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			continue
		}
		var res resultJSON
		if err := json.Unmarshal([]byte(js), &res); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if vals[name] == nil {
			vals[name] = map[string][]float64{}
		}
		for m, v := range res.Metrics {
			vals[name][m] = append(vals[name][m], v.Value)
			units[m] = v.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-30s %3s %14s %14s %14s %8s %6s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloadNames {
		metrics := make([]string, 0, len(vals[wl]))
		for m := range vals[wl] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			xs := vals[wl][m]
			q1, q2, q3 := quartiles(xs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			bound := "-"
			if b, ok := bounds[m]; ok {
				bound = fmt.Sprintf("%.2f", b)
				if spread > b/3 {
					bound += " !"
				}
			}
			fmt.Fprintf(w, "%-13s %-30s %3d %14.5f %14.5f %14.5f %8.4f %6s  %s\n", wl, m, len(xs), q1, q2, q3, spread, bound, units[m])
		}
	}
	return nil
}
