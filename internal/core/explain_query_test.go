package core

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sudaf/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite EXPLAIN golden files")

// epochRE strips table epochs from EXPLAIN output before golden
// comparison: epochs come from a process-global counter, so their
// absolute values depend on which tests ran earlier in the process.
var epochRE = regexp.MustCompile(`@\d+`)

// explainSession builds a session over a small deterministic table so
// the EXPLAIN golden files are stable: two regions, strictly positive
// prices (positivity widens sharing and is part of the provenance).
func explainSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(Options{Workers: 1})
	sales := storage.NewTable("sales",
		storage.NewColumn("region", storage.KindInt),
		storage.NewColumn("price", storage.KindFloat))
	prices := []float64{2, 3, 4, 5, 2.5, 3.5, 4.5, 5.5}
	for i, p := range prices {
		sales.Col("region").AppendInt(int64(i % 2))
		sales.Col("price").AppendFloat(p)
	}
	if err := s.Register(sales); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	got = epochRE.ReplaceAllString(got, "@N")
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with go test -run Golden -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN output diverged from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

const explainQ = "SELECT region, gm(price) FROM sales GROUP BY region"

func TestExplainGoldenBaseline(t *testing.T) {
	s := explainSession(t)
	ex, err := s.ExplainQuery(explainQ, ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_baseline.golden", ex.String())
}

func TestExplainGoldenRewrite(t *testing.T) {
	s := explainSession(t)
	ex, err := s.ExplainQuery(explainQ, ModeRewrite)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_rewrite.golden", ex.String())
}

func TestExplainGoldenShareMiss(t *testing.T) {
	s := explainSession(t)
	ex, err := s.ExplainQuery(explainQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_share_miss.golden", ex.String())
}

func TestExplainGoldenShareExactHit(t *testing.T) {
	s := explainSession(t)
	if _, err := s.Query(explainQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	ex, err := s.ExplainQuery(explainQ, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_share_exact.golden", ex.String())
}

func TestExplainGoldenShareSharedHit(t *testing.T) {
	s := explainSession(t)
	// lnprod's state Σ ln(x) shares gm's cached Π x via the Theorem 4.1
	// case 2.2 rewriting r(s) = ln(s) — the provenance the golden pins.
	if err := s.DefineUDAF("lnprod", []string{"x"}, "sum(ln(x))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(explainQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	ex, err := s.ExplainQuery("SELECT region, lnprod(price) FROM sales GROUP BY region", ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_share_shared.golden", ex.String())
}

// TestExplainDoesNotMutate pins the read-only contract: EXPLAIN in share
// mode probes the cache without touching stats, the LRU, or the entry's
// state set.
func TestExplainDoesNotMutate(t *testing.T) {
	s := explainSession(t)
	if err := s.DefineUDAF("lnprod", []string{"x"}, "sum(ln(x))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(explainQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	before := s.CacheStats()
	gt, ok := cacheEntry(s.Cache(), fingerprintOf(t, s, explainQ))
	if !ok {
		t.Fatal("no cache entry after share-mode query")
	}
	statesBefore := strings.Join(gt.StateKeys(), ";")
	for i := 0; i < 3; i++ {
		if _, err := s.ExplainQuery("SELECT region, lnprod(price) FROM sales GROUP BY region", ModeShare); err != nil {
			t.Fatal(err)
		}
	}
	if after := s.CacheStats(); after != before {
		t.Errorf("EXPLAIN mutated cache stats: before %+v, after %+v", before, after)
	}
	if statesAfter := strings.Join(gt.StateKeys(), ";"); statesAfter != statesBefore {
		t.Errorf("EXPLAIN materialized derived states: before %q, after %q", statesBefore, statesAfter)
	}
}

// TestExplainSharedHitFields asserts the structured provenance a share-
// mode EXPLAIN must carry on a shared hit: the matched cached state, the
// scalar rewriting, and the (empty = strong) condition list.
func TestExplainSharedHitFields(t *testing.T) {
	s := explainSession(t)
	if err := s.DefineUDAF("lnprod", []string{"x"}, "sum(ln(x))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(explainQ, ModeShare); err != nil {
		t.Fatal(err)
	}
	ex, err := s.ExplainQuery("SELECT region, lnprod(price) FROM sales GROUP BY region", ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	var shared *ExplainState
	for i := range ex.States {
		if ex.States[i].Hit == "shared" {
			shared = &ex.States[i]
		}
	}
	if shared == nil {
		t.Fatalf("no shared-hit state in %+v", ex.States)
	}
	if shared.Matched == "" || !strings.Contains(shared.Matched, "prod") {
		t.Errorf("shared hit should name the matched product state, got %q", shared.Matched)
	}
	if shared.Rewrite == "" || !strings.Contains(shared.Rewrite, "ln") {
		t.Errorf("shared hit should carry the ln rewriting, got %q", shared.Rewrite)
	}
	if len(shared.Conditions) != 0 {
		t.Errorf("concrete-state sharing should be unconditional, got %v", shared.Conditions)
	}
	if !shared.PositiveOnly {
		t.Error("Σln ← Πx sharing should be marked positive-only")
	}
}

func fingerprintOf(t *testing.T, s *Session, sql string) string {
	t.Helper()
	ex, err := s.ExplainQuery(sql, ModeRewrite)
	if err != nil {
		t.Fatal(err)
	}
	return ex.Fingerprint
}

// TestExplainWindowProvenance pins the OVER-clause section: the frame
// shape, the window-qualified fingerprint, and — after a share-mode
// windowed run — exact per-state hits probed under that fingerprint
// rather than the plain data fingerprint.
func TestExplainWindowProvenance(t *testing.T) {
	s := explainSession(t)
	const q = "SELECT qm(price) OVER (ROWS 3 PRECEDING) FROM sales"
	ex, err := s.ExplainQuery(q, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	w := ex.Window
	if w == nil {
		t.Fatal("windowed statement must carry Window provenance")
	}
	if w.Frame != "ROWS 3 PRECEDING" || !w.Sliding || w.Size != 4 || w.Unit != "ROWS" {
		t.Fatalf("window = %+v", w)
	}
	if w.Fingerprint != ex.Fingerprint+"|W[ROWS 3 PRECEDING]" {
		t.Fatalf("window fingerprint = %q", w.Fingerprint)
	}
	out := ex.String()
	if !strings.Contains(out, "window:\n  frame:       ROWS 3 PRECEDING (sliding, size 4 rows)") {
		t.Fatalf("rendered explain missing window section:\n%s", out)
	}
	for _, st := range ex.States {
		if st.Hit != "miss" {
			t.Fatalf("cold window probe: state %s hit=%q, want miss", st.Key, st.Hit)
		}
	}

	// A share-mode windowed run caches per-emission vectors under the
	// window fingerprint; the probe must now see exact hits there.
	if _, err := s.Query(q, ModeShare); err != nil {
		t.Fatal(err)
	}
	ex, err = s.ExplainQuery(q, ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range ex.States {
		if st.Hit != "exact" {
			t.Fatalf("warm window probe: state %s hit=%q, want exact", st.Key, st.Hit)
		}
	}
	// The non-windowed statement still probes the plain fingerprint and
	// must NOT see the window partials.
	plain, err := s.ExplainQuery("SELECT qm(price) FROM sales", ModeShare)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Window != nil {
		t.Fatal("non-windowed statement must not carry Window provenance")
	}
	for _, st := range plain.States {
		if st.Hit == "exact" {
			t.Fatalf("plain probe leaked window partials: state %s", st.Key)
		}
	}
}
