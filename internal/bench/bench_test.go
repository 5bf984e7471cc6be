package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyRunner builds a runner at smoke-test scale.
func tinyRunner() (*Runner, *bytes.Buffer) {
	var buf bytes.Buffer
	r := NewRunner(Config{
		PGScale:        1,
		SparkScale:     1,
		MilanRowsPG:    60_000,
		MilanRowsSpark: 80_000,
		MilanSquares:   200,
		Fig10Queries:   12,
		Out:            &buf,
	})
	return r, &buf
}

func TestFig1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke test")
	}
	r, buf := tinyRunner()
	r.Fig1(false)
	out := buf.String()
	for _, want := range []string{"Q1 UDAF", "cov/var", "RQ3'", "(b) Q2 after Q1"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
	// The share run of Q2 must touch zero rows.
	for _, m := range r.Results {
		if m.Exp == "fig1b" && strings.Contains(m.Label, "share, after Q1") && m.Rows != 0 {
			t.Errorf("Q2 after Q1 scanned %d rows", m.Rows)
		}
	}
}

func TestSequencesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke test")
	}
	r, _ := tinyRunner()
	results := r.RunSequences(false)
	if len(results) != 18 { // 3 models × 2 sequences × 3 systems
		t.Fatalf("got %d sequence results", len(results))
	}
	for _, sr := range results {
		if len(sr.PerQuery) != 11 {
			t.Fatalf("model %d %s %s: %d queries", sr.Model, sr.Sequence, sr.System, len(sr.PerQuery))
		}
		if sr.Total <= 0 {
			t.Errorf("model %d %s %s: zero total", sr.Model, sr.Sequence, sr.System)
		}
	}
	// The sharing system must beat no-share on every (model, sequence):
	// at tiny scale allow ties but require a win on total across all.
	var shareTotal, noShareTotal float64
	for _, sr := range results {
		switch sr.System {
		case "sudaf-share":
			shareTotal += sr.Total
		case "sudaf-noshare":
			noShareTotal += sr.Total
		}
	}
	if shareTotal >= noShareTotal {
		t.Errorf("sharing (%.4fs) should beat no-share (%.4fs) overall", shareTotal, noShareTotal)
	}
	// AS2+share: the prefetched sketch must leave only hm touching data.
	for _, sr := range results {
		if sr.Sequence != "AS2" || sr.System != "sudaf-share" {
			continue
		}
		for _, m := range sr.PerQuery {
			if m.Label == "hm" {
				if m.Rows == 0 {
					t.Errorf("model %d: hm should scan (Σx⁻¹ not in sketch)", sr.Model)
				}
			} else if m.Rows != 0 {
				t.Errorf("model %d: %s scanned %d rows despite the prefetched sketch",
					sr.Model, m.Label, m.Rows)
			}
		}
	}
}

func TestTable1AndSpace(t *testing.T) {
	r, buf := tinyRunner()
	r.Table1()
	r.Space()
	out := buf.String()
	for _, want := range []string{"gm =", "covariance =", "saggs_2: 42 states", "equivalence classes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestQueryModelSQL(t *testing.T) {
	for m := 1; m <= 3; m++ {
		q := QueryModel(m, "qm")
		if !strings.Contains(q, "qm(") {
			t.Errorf("model %d: %q", m, q)
		}
	}
	if q := QueryModel(1, "count"); !strings.Contains(q, "count(*)") {
		t.Errorf("count rendering: %q", q)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad model should panic")
		}
	}()
	QueryModel(9, "qm")
}
