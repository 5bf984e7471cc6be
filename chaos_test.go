package sudaf_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sudaf"
	"sudaf/internal/faultinject"
)

// chaosEngine builds a two-table engine so the chaos query exercises the
// scan, join, worker and cache fault points in one statement.
func chaosEngine(t *testing.T) *sudaf.Engine {
	t.Helper()
	eng := sudaf.Open(sudaf.Options{Workers: 4})
	rng := rand.New(rand.NewSource(7))
	sales := sudaf.NewTable("sales",
		sudaf.NewColumn("s_store", sudaf.Int),
		sudaf.NewColumn("s_item", sudaf.Int),
		sudaf.NewColumn("price", sudaf.Float))
	for i := 0; i < 20_000; i++ {
		sales.Col("s_store").AppendInt(int64(rng.Intn(4)))
		sales.Col("s_item").AppendInt(int64(rng.Intn(8)))
		sales.Col("price").AppendFloat(1 + rng.Float64()*99)
	}
	stores := sudaf.NewTable("stores",
		sudaf.NewColumn("st_id", sudaf.Int),
		sudaf.NewColumn("st_state", sudaf.String))
	for i, st := range []string{"TN", "CA", "TN", "NY"} {
		stores.Col("st_id").AppendInt(int64(i))
		stores.Col("st_state").AppendString(st)
	}
	if err := eng.Register(sales); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(stores); err != nil {
		t.Fatal(err)
	}
	return eng
}

// approx_median puts a memoized terminating-function column in play: a
// fault on the cache path must degrade it to a solve, never to a wrong or
// partial column.
const chaosQuery = `SELECT s_item, qm(price), sum(price), approx_median(price) FROM sales, stores
	WHERE s_store = st_id AND st_state = 'TN' GROUP BY s_item ORDER BY s_item`

func sameResult(t *testing.T, a, b *sudaf.Result) {
	t.Helper()
	if a.Table.NumRows() != b.Table.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.Table.NumRows(), b.Table.NumRows())
	}
	for c := 1; c < len(a.Table.Cols); c++ {
		for i := range a.Table.Cols[c].F {
			av, bv := a.Table.Cols[c].F[i], b.Table.Cols[c].F[i]
			if math.Abs(av-bv) > 1e-9*(1+math.Abs(av)) {
				t.Fatalf("col %d row %d: %v vs %v", c, i, av, bv)
			}
		}
	}
}

// TestChaosSweep arms every fault point with every fault kind and asserts
// the invariant of the failure model: an injected fault surfaces as a
// clean error or a degraded-but-correct result — never a crash and never
// a wrong answer.
func TestChaosSweep(t *testing.T) {
	defer faultinject.Reset()
	eng := chaosEngine(t)

	// Fault-free reference, and a warm cache so cache.get points fire.
	faultinject.Reset()
	want, err := eng.Query(chaosQuery, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}

	kinds := []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindDelay}
	for _, point := range faultinject.Points() {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", point, kind), func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Arm(point, faultinject.Spec{Kind: kind, Delay: time.Millisecond})
				res, err := eng.Query(chaosQuery, sudaf.Share)
				fired := faultinject.Fired(point) > 0

				switch {
				case err != nil:
					// A clean error is acceptable for every point except the
					// cache, which must degrade instead.
					if point == faultinject.PointCacheGet {
						t.Fatalf("cache fault must fall back, not fail: %v", err)
					}
				case kind == faultinject.KindDelay || point == faultinject.PointCacheGet:
					// Delays and cache faults never change the answer.
					sameResult(t, res, want)
					if point == faultinject.PointCacheGet && kind != faultinject.KindDelay &&
						fired && len(res.Events) == 0 {
						t.Error("survived cache fault should be recorded in Events")
					}
				default:
					// Error/panic kinds that did not fire (point not on this
					// query's path) must still produce the right answer.
					if fired {
						t.Fatalf("%s/%s fired but query succeeded without degradation path", point, kind)
					}
					sameResult(t, res, want)
				}
			})
		}
	}

	// The engine still works after the whole sweep.
	faultinject.Reset()
	res, err := eng.Query(chaosQuery, sudaf.Share)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, want)
	if err := eng.Session().Cache().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestChaosSeeds replays seeded chaos plans — any failure reproduces from
// its seed alone.
func TestChaosSeeds(t *testing.T) {
	defer faultinject.Reset()
	eng := chaosEngine(t)
	faultinject.Reset()
	want, err := eng.Query(chaosQuery, sudaf.Rewrite)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		faultinject.Reset()
		point, spec := faultinject.PlanFromSeed(seed)
		res, err := eng.Query(chaosQuery, sudaf.Rewrite)
		if err != nil {
			if point == faultinject.PointCacheGet {
				t.Errorf("seed %d (%s %v): cache fault must not fail a query: %v", seed, point, spec.Kind, err)
			}
			continue // clean error: acceptable
		}
		sameResult(t, res, want)
	}
	faultinject.Reset()
}
