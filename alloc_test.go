package sudaf_test

import (
	"testing"

	"sudaf"
	"sudaf/internal/data"
	"sudaf/internal/exec"
)

// TestGroupByAllocationsIndependentOfMorsels is the allocation guard of
// the keyed scan path: a warmed 10k-group model-2 query in Rewrite mode
// allocates a number of objects that depends on the groups and tasks, not
// on how many morsels the table spans. Morsel partials are recycled
// through a fixed set of buffers and grown geometrically, the dense paths
// touch no hash map, and ORDER BY … LIMIT selects without a full sort.
// Before the direct-addressed scan, every morsel built its own map and
// partials: ~130 objects per morsel on this query.
func TestGroupByAllocationsIndependentOfMorsels(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16-morsel table")
	}
	const sql = "SELECT square_id, qm(internet_traffic) FROM milan_data GROUP BY square_id ORDER BY square_id LIMIT 20"
	allocs := func(morsels int) float64 {
		eng := sudaf.Open(sudaf.Options{Workers: 2})
		if err := eng.Register(data.Milan(morsels*exec.MorselRows, 10_000, 7)); err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := eng.Query(sql, sudaf.Rewrite); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: form compilation, column statistics
		return testing.AllocsPerRun(5, run)
	}
	few, many := allocs(4), allocs(16)
	t.Logf("allocs/query: %.0f at 4 morsels, %.0f at 16", few, many)
	if many > few+40 {
		t.Errorf("allocations grow with the morsel count: %.0f at 4 morsels, %.0f at 16", few, many)
	}
}
