package sketch

import (
	"math"
	"runtime"
	"testing"
)

// refMaxEntropySolve is the damped Newton solve written the plain way:
// the density, the gradient and every Hessian entry each in their own
// loop over the nodes, and the density recomputed from λ at the top of
// every iteration. maxEntropySolve must return its λ bit for bit.
func refMaxEntropySolve(cheb []float64) ([]float64, bool) {
	k := len(cheb) - 1
	ts, ws := quadWeights()
	// Precompute T_n at the quadrature nodes.
	tn := make([][]float64, k+1)
	for n := 0; n <= k; n++ {
		tn[n] = make([]float64, len(ts))
	}
	for i, t := range ts {
		tn[0][i] = 1
		if k >= 1 {
			tn[1][i] = t
		}
		for n := 2; n <= k; n++ {
			tn[n][i] = 2*t*tn[n-1][i] - tn[n-2][i]
		}
	}
	lambda := make([]float64, k+1)
	lambda[0] = -math.Ln2 // uniform density 1/2 on [-1,1]

	potential := func(l []float64) float64 {
		var z float64
		for i := range ts {
			e := 0.0
			for n := 0; n <= k; n++ {
				e += l[n] * tn[n][i]
			}
			z += ws[i] * math.Exp(e)
		}
		dot := 0.0
		for n := 0; n <= k; n++ {
			dot += l[n] * cheb[n]
		}
		return z - dot
	}

	f := make([]float64, len(ts))
	grad := make([]float64, k+1)
	hess := make([][]float64, k+1)
	for n := range hess {
		hess[n] = make([]float64, k+1)
	}
	phi := potential(lambda)
	for iter := 0; iter < 80; iter++ {
		// Density at nodes.
		for i := range ts {
			e := 0.0
			for n := 0; n <= k; n++ {
				e += lambda[n] * tn[n][i]
			}
			f[i] = ws[i] * math.Exp(e)
		}
		// Gradient and Hessian.
		gmax := 0.0
		for n := 0; n <= k; n++ {
			var acc float64
			for i := range ts {
				acc += f[i] * tn[n][i]
			}
			grad[n] = acc - cheb[n]
			if math.Abs(grad[n]) > gmax {
				gmax = math.Abs(grad[n])
			}
			for mIdx := n; mIdx <= k; mIdx++ {
				var h float64
				for i := range ts {
					h += f[i] * tn[n][i] * tn[mIdx][i]
				}
				hess[n][mIdx] = h
				hess[mIdx][n] = h
			}
		}
		if gmax < 1e-10 {
			return lambda, true
		}
		step, ok := solveLinear(hess, grad)
		if !ok {
			return nil, false
		}
		// Damped update: halve until the potential decreases.
		improved := false
		for damp := 1.0; damp > 1e-6; damp /= 2 {
			trial := make([]float64, k+1)
			for n := range trial {
				trial[n] = lambda[n] - damp*step[n]
			}
			p := potential(trial)
			if !math.IsNaN(p) && !math.IsInf(p, 0) && p < phi {
				lambda, phi = trial, p
				improved = true
				break
			}
		}
		if !improved {
			// Converged as far as float precision allows.
			return lambda, gmax < 1e-4
		}
	}
	return lambda, true
}

// solverInput returns the Chebyshev moments Quantile hands the solver for
// one corpus input, and false for an input that never reaches it (a point
// mass, or moments no distribution on [min, max] has).
func solverInput(c goldenCase) ([]float64, bool) {
	if c.max-c.min < 1e-12*(1+math.Abs(c.max)) {
		return nil, false
	}
	a := 2 / (c.max - c.min)
	b := -(c.max + c.min) / (c.max - c.min)
	mu := scaledMoments(c.m, a, b)
	if !plausibleMoments(mu) {
		return nil, false
	}
	return chebyshevMoments(mu), true
}

// TestNewtonMatchesReference holds maxEntropySolve's λ and ok flag to the
// plain loops over every corpus input that reaches the solver. The
// quantile golden alone can miss a λ difference that invertCDF's linear
// interpolation rounds away; λ's own bits cannot.
func TestNewtonMatchesReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits compared on amd64; other architectures may fuse multiply-adds")
	}
	solved, failed := 0, 0
	for ci, c := range goldenCases() {
		cheb, ok := solverInput(c)
		if !ok {
			continue
		}
		want, wantOK := refMaxEntropySolve(cheb)
		got, gotOK := maxEntropySolve(cheb)
		if gotOK != wantOK || len(got) != len(want) {
			t.Fatalf("case %d: ok %v with %d λ, reference ok %v with %d λ", ci, gotOK, len(got), wantOK, len(want))
		}
		for n := range want {
			if math.Float64bits(got[n]) != math.Float64bits(want[n]) {
				t.Fatalf("case %d: λ[%d] = %v (%016x), reference %v (%016x)", ci, n,
					got[n], math.Float64bits(got[n]), want[n], math.Float64bits(want[n]))
			}
		}
		if wantOK {
			solved++
		} else {
			failed++
		}
	}
	// The corpus must exercise both outcomes, or the flag is unchecked.
	if solved == 0 || failed == 0 {
		t.Fatalf("corpus reached the solver with %d solved and %d failed inputs; want both", solved, failed)
	}
}
