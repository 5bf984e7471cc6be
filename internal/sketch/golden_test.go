package sketch

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quantile_golden.txt from the current solver")

const goldenVectors = 2000

// goldenCase is one seeded solver input.
type goldenCase struct {
	min, max float64
	m        []float64
}

// goldenCases draws the fixed corpus the bit-exact golden is recorded
// over: mostly sample moments of small heavy-tailed groups (what a
// grouped query feeds the solver), plus the inputs that leave the Newton
// path — point masses, moment vectors no distribution has, and shapes the
// solver gives up on (two-point and near-degenerate mixtures).
func goldenCases() []goldenCase {
	rng := rand.New(rand.NewSource(20))
	out := make([]goldenCase, 0, goldenVectors)
	sample := func(n int, draw func() float64) goldenCase {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
		}
		min, max, m := momentsOf(xs, DefaultK)
		return goldenCase{min, max, m}
	}
	for len(out) < goldenVectors {
		n := 20 + rng.Intn(500)
		switch i := len(out) % 20; {
		case i < 10: // log-normal, the benchmark's traffic shape
			mu, sigma := rng.Float64()*4, 0.2+rng.Float64()*1.5
			out = append(out, sample(n, func() float64 { return math.Exp(mu + sigma*rng.NormFloat64()) }))
		case i < 13:
			lo, w := rng.NormFloat64()*100, rng.Float64()*1000
			out = append(out, sample(n, func() float64 { return lo + w*rng.Float64() }))
		case i < 15:
			c, s := rng.NormFloat64()*50, 0.1+rng.Float64()*20
			out = append(out, sample(n, func() float64 { return c + s*rng.NormFloat64() }))
		case i == 15: // point mass
			v := rng.NormFloat64() * 1000
			out = append(out, sample(n, func() float64 { return v }))
		case i == 16: // moments no distribution on [min, max] has
			m := make([]float64, DefaultK+1)
			m[0] = 1
			for j := 1; j <= DefaultK; j++ {
				m[j] = rng.NormFloat64() * math.Pow(10, float64(j))
			}
			out = append(out, goldenCase{-1 - rng.Float64(), 1 + rng.Float64(), m})
		case i == 17: // two-point: the density is not an exp-polynomial
			a, b, p := rng.Float64()*10, 20+rng.Float64()*10, 0.05+0.9*rng.Float64()
			out = append(out, sample(n, func() float64 {
				if rng.Float64() < p {
					return a
				}
				return b
			}))
		case i == 18: // a tight cluster plus one far outlier
			c := 1 + rng.Float64()
			g := sample(n, func() float64 { return c + 1e-3*rng.Float64() })
			g.max = c + 1e6
			out = append(out, g)
		default: // tiny group
			out = append(out, sample(2+rng.Intn(4), func() float64 { return math.Exp(3 * rng.NormFloat64()) }))
		}
	}
	return out
}

var goldenQs = []float64{0.25, 0.5, 0.75}

const goldenPath = "testdata/quantile_golden.txt"

// TestQuantileGolden pins Quantile's output bits over the seeded corpus:
// memoized finisher columns are promised bit-identical to a fresh solve,
// so an edit to the solver that changes one floating-point operation or
// its order has to show up here first.
func TestQuantileGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64; other architectures may fuse multiply-adds")
	}
	cases := goldenCases()
	got := make([]uint64, 0, len(cases)*len(goldenQs))
	for _, c := range cases {
		for _, q := range goldenQs {
			got = append(got, math.Float64bits(Quantile(c.min, c.max, c.m, q)))
		}
	}
	if *updateGolden {
		f, err := os.Create(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, b := range got {
			fmt.Fprintf(w, "%016x\n", b)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	i := 0
	for ; sc.Scan(); i++ {
		want, err := strconv.ParseUint(sc.Text(), 16, 64)
		if err != nil {
			t.Fatalf("golden line %d: %v", i+1, err)
		}
		if i < len(got) && got[i] != want {
			t.Fatalf("case %d q=%v: got %v (%016x), golden %v (%016x)", i/len(goldenQs), goldenQs[i%len(goldenQs)],
				math.Float64frombits(got[i]), got[i], math.Float64frombits(want), want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(got) {
		t.Fatalf("golden holds %d values, corpus produces %d", i, len(got))
	}
}
