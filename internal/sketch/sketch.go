// Package sketch implements the moment sketch of Gan et al. (VLDB'18) as
// used by the SUDAF paper: the sketch is a set of SUDAF aggregation
// states (min, max, count, Σx^i, Σ(ln x)^i for i ≤ k) and the quantile
// estimator is a *hardcoded terminating function* (§4.1 scenario 2) — a
// maximum-entropy solver that fits the density exp(Σ λ_i T_i(t)) on the
// scaled domain via damped Newton iterations over a Chebyshev basis, then
// inverts the CDF.
//
// Because the sketch's states are ordinary SUDAF states, prefetching a
// moment sketch populates the cache with Σx^i and Σln^i x, from which
// later aggregates (qm, cm, variance, geometric mean via Πx = e^{Σln x},
// …) are answered without touching base data — the paper's AS2 scenario.
package sketch

import (
	"fmt"
	"math"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
)

// DefaultK is the paper's sketch order (k = 10 in Section 6).
const DefaultK = 10

// States returns the moment-sketch aggregation states over parameter x:
// min, max, count, Σx^i (i=1..k), Σ(ln x)^i (i=1..k).
func States(k int) []canonical.State {
	base := &expr.Var{Name: "x"}
	out := []canonical.State{
		{Op: canonical.OpMin, F: scalar.IdentityChain(), Base: base},
		{Op: canonical.OpMax, F: scalar.IdentityChain(), Base: base},
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
	}
	for i := 1; i <= k; i++ {
		ch := scalar.IdentityChain()
		if i > 1 {
			ch = scalar.NewChain(scalar.PowerP(float64(i)))
		}
		out = append(out, canonical.State{Op: canonical.OpSum, F: ch, Base: base})
	}
	for i := 1; i <= k; i++ {
		ch := scalar.NewChain(scalar.LogP(scalar.E))
		if i > 1 {
			ch = ch.Then(scalar.PowerP(float64(i)))
		}
		out = append(out, canonical.State{Op: canonical.OpSum, F: ch, Base: base})
	}
	return out
}

// NumStates is the state count of MS(k): 3 + 2k.
func NumStates(k int) int { return 3 + 2*k }

// QuantileForm builds a UDAF form named name approximating the q-th
// quantile from MS(k) states with a hardcoded terminating function.
func QuantileForm(name string, k int, q float64) (*canonical.Form, error) {
	if k < 2 {
		return nil, fmt.Errorf("moment sketch needs k ≥ 2, got %d", k)
	}
	if q <= 0 || q >= 1 {
		return nil, fmt.Errorf("quantile must be in (0,1), got %v", q)
	}
	form := &canonical.Form{
		Name:   name,
		Params: []string{"x"},
		States: States(k),
		T:      &expr.Var{Name: "s1"}, // unused; HardT overrides
		// The solve is a pure function of the states, k and q.
		HardTKey: fmt.Sprintf("msq(k=%d,q=%v)", k, q),
	}
	form.HardT = func(st []float64) (float64, error) {
		if len(st) != NumStates(k) {
			return 0, fmt.Errorf("%s: got %d states, want %d", name, len(st), NumStates(k))
		}
		min, max, n := st[0], st[1], st[2]
		if n == 0 {
			return math.NaN(), nil
		}
		moments := make([]float64, k+1)
		moments[0] = 1
		for i := 1; i <= k; i++ {
			moments[i] = st[2+i] / n
		}
		return Quantile(min, max, moments, q), nil
	}
	return form, nil
}

// PrefetchForm builds the "moment_sketch" UDAF: it computes and caches
// the MS(k) states but its terminating function simply reports the count
// — the cheap prefetch the paper runs before sequence AS2.
func PrefetchForm(name string, k int) *canonical.Form {
	form := &canonical.Form{
		Name:   name,
		Params: []string{"x"},
		States: States(k),
		T:      &expr.Var{Name: "s3"}, // count
	}
	form.HardT = func(st []float64) (float64, error) { return st[2], nil }
	return form
}

// Quantile estimates the q-th quantile of a distribution on [min, max]
// with raw power moments m[i] = E[x^i] (m[0] = 1) using the
// maximum-entropy fit; it falls back to a moment-matched normal
// approximation when the solver cannot converge.
func Quantile(min, max float64, m []float64, q float64) float64 {
	if max-min < 1e-12*(1+math.Abs(max)) {
		return min // point mass
	}
	// Scale x to t ∈ [-1, 1]: t = a·x + b.
	a := 2 / (max - min)
	b := -(max + min) / (max - min)
	mu := scaledMoments(m, a, b)
	if !plausibleMoments(mu) {
		return normalFallback(min, max, m, q)
	}
	cheb := chebyshevMoments(mu)
	lambda, ok := maxEntropySolve(cheb)
	if !ok {
		return normalFallback(min, max, m, q)
	}
	t := invertCDF(lambda, q)
	return (t - b) / a
}

// scaledMoments computes E[(a·x+b)^j] from E[x^i] by binomial expansion.
func scaledMoments(m []float64, a, b float64) []float64 {
	k := len(m) - 1
	mu := make([]float64, k+1)
	for j := 0; j <= k; j++ {
		var acc float64
		binom := 1.0
		// C(j, i) a^i b^(j-i) m[i]
		for i := 0; i <= j; i++ {
			acc += binom * math.Pow(a, float64(i)) * math.Pow(b, float64(j-i)) * m[i]
			binom = binom * float64(j-i) / float64(i+1)
		}
		mu[j] = acc
	}
	return mu
}

// plausibleMoments checks that scaled power moments are within the
// feasible range for a distribution on [-1, 1].
func plausibleMoments(mu []float64) bool {
	for _, v := range mu {
		if math.IsNaN(v) || math.Abs(v) > 1+1e-6 {
			return false
		}
	}
	return true
}

// chebyshevMoments converts power moments E[t^j] into Chebyshev moments
// E[T_n(t)] using the T_n coefficient recurrence.
func chebyshevMoments(mu []float64) []float64 {
	k := len(mu) - 1
	// coeff[n][j]: coefficient of t^j in T_n.
	coeff := make([][]float64, k+1)
	coeff[0] = []float64{1}
	if k >= 1 {
		coeff[1] = []float64{0, 1}
	}
	for n := 2; n <= k; n++ {
		c := make([]float64, n+1)
		for j, v := range coeff[n-1] {
			c[j+1] += 2 * v
		}
		for j, v := range coeff[n-2] {
			c[j] -= v
		}
		coeff[n] = c
	}
	out := make([]float64, k+1)
	for n := 0; n <= k; n++ {
		var acc float64
		for j, c := range coeff[n] {
			acc += c * mu[j]
		}
		out[n] = acc
	}
	return out
}

// Quadrature grid on [-1, 1] (composite Simpson; the integrand
// exp(poly_k) is smooth, so this converges fast and avoids precomputing
// Gauss nodes).
const quadN = 128

func quadWeights() (ts, ws []float64) {
	ts = make([]float64, quadN+1)
	ws = make([]float64, quadN+1)
	h := 2.0 / quadN
	for i := 0; i <= quadN; i++ {
		ts[i] = -1 + h*float64(i)
		switch {
		case i == 0 || i == quadN:
			ws[i] = h / 3
		case i%2 == 1:
			ws[i] = 4 * h / 3
		default:
			ws[i] = 2 * h / 3
		}
	}
	return ts, ws
}

// maxEntropySolve finds λ with E_f[T_n] = cheb[n] for the density
// f(t) = exp(Σ λ_n T_n(t)) by damped Newton on the dual potential.
//
// Every sum it forms adds its terms in ascending order, starting from 0:
// each node's exponent over n, and the potential and every gradient and
// Hessian entry over the nodes, each Hessian term being
// (f_i·T_n(t_i))·T_m(t_i). The loops may be regrouped for speed, but
// those sums may not be reordered: the cache promises that a memoized
// quantile equals a fresh solve bit for bit (DESIGN.md §8).
// TestNewtonMatchesReference holds λ to the plain loops, and
// TestQuantileGolden holds the quantiles.
func maxEntropySolve(cheb []float64) ([]float64, bool) {
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

	// potential returns the dual potential at l and leaves the weighted
	// density at the nodes, ws[i]·exp(Σ l_n T_n(t_i)), in dens.
	potential := func(l, dens []float64) float64 {
		// Each node's exponent adds its terms in order of n, but the
		// nodes' sums advance together.
		e := dens[:len(ts)]
		for i := range e {
			e[i] = 0
		}
		for n := 0; n <= k; n++ {
			ln, tr := l[n], tn[n][:len(e)]
			for i, v := range tr {
				e[i] += ln * v
			}
		}
		var z float64
		for i, w := range ws[:len(e)] {
			d := w * math.Exp(e[i])
			e[i] = d
			z += d
		}
		dot := 0.0
		for n := 0; n <= k; n++ {
			dot += l[n] * cheb[n]
		}
		return z - dot
	}

	// f is the density at λ; next receives each damped trial's density,
	// and the two swap when a trial is accepted.
	f := make([]float64, len(ts))
	next := make([]float64, len(ts))
	g := make([]float64, len(ts))
	grad := make([]float64, k+1)
	hess := make([][]float64, k+1)
	for n := range hess {
		hess[n] = make([]float64, k+1)
	}
	phi := potential(lambda, f)
	for iter := 0; iter < 80; iter++ {
		// T_0 ≡ 1 and f_i·1 = f_i exactly, so Hessian row 0 holds the
		// gradient's sums Σ_i f_i·T_m(t_i) bit for bit. Fill it first,
		// and stop if they are small.
		hessRow(hess, tn, f, g, 0)
		gmax := 0.0
		for n := 0; n <= k; n++ {
			grad[n] = hess[0][n] - cheb[n]
			if math.Abs(grad[n]) > gmax {
				gmax = math.Abs(grad[n])
			}
		}
		if gmax < 1e-10 {
			return lambda, true
		}
		for n := 1; n <= k; n++ {
			hessRow(hess, tn, f, g, n)
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
			p := potential(trial, next)
			if !math.IsNaN(p) && !math.IsInf(p, 0) && p < phi {
				lambda, phi = trial, p
				f, next = next, f
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

// hessRow fills row n of the Hessian and its mirror column:
// hess[n][m] = Σ_i (f_i·T_n(t_i))·T_m(t_i) for m ≥ n, each sum in node
// order. g is scratch for the left factors f_i·T_n(t_i), formed once per
// row. The columns are summed four at a time in one pass over the nodes,
// each into its own accumulator, so their adds overlap instead of
// waiting on one another; a last block of fewer than four repeats column
// k and discards the extra sums.
func hessRow(hess, tn [][]float64, f, g []float64, n int) {
	k := len(tn) - 1
	tr, g := tn[n][:len(f)], g[:len(f)]
	for i, fi := range f {
		g[i] = fi * tr[i]
	}
	col := func(m int) []float64 { return tn[min(m, k)][:len(g)] }
	for m := n; m <= k; m += 4 {
		t0, t1, t2, t3 := col(m), col(m+1), col(m+2), col(m+3)
		var h0, h1, h2, h3 float64
		for i, gi := range g {
			h0 += gi * t0[i]
			h1 += gi * t1[i]
			h2 += gi * t2[i]
			h3 += gi * t3[i]
		}
		for j, h := range [...]float64{h0, h1, h2, h3} {
			if m+j <= k {
				hess[n][m+j] = h
				hess[m+j][n] = h
			}
		}
	}
}

// solveLinear solves H·x = b by Gaussian elimination with partial
// pivoting (H is small: (k+1)², k ≤ ~12).
func solveLinear(H [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	A := make([][]float64, n)
	for i := range A {
		A[i] = make([]float64, n+1)
		copy(A[i], H[i])
		A[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[p][col]) {
				p = r
			}
		}
		if math.Abs(A[p][col]) < 1e-14 {
			return nil, false
		}
		A[col], A[p] = A[p], A[col]
		for r := col + 1; r < n; r++ {
			ratio := A[r][col] / A[col][col]
			for c := col; c <= n; c++ {
				A[r][c] -= ratio * A[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		acc := A[r][n]
		for c := r + 1; c < n; c++ {
			acc -= A[r][c] * x[c]
		}
		x[r] = acc / A[r][r]
	}
	return x, true
}

// invertCDF integrates the fitted density and returns the t with
// CDF(t) = q (linear interpolation between nodes).
func invertCDF(lambda []float64, q float64) float64 {
	k := len(lambda) - 1
	ts, ws := quadWeights()
	mass := make([]float64, len(ts))
	total := 0.0
	tn := make([]float64, k+1)
	for i, t := range ts {
		tn[0] = 1
		if k >= 1 {
			tn[1] = t
		}
		for n := 2; n <= k; n++ {
			tn[n] = 2*t*tn[n-1] - tn[n-2]
		}
		e := 0.0
		for n := 0; n <= k; n++ {
			e += lambda[n] * tn[n]
		}
		mass[i] = ws[i] * math.Exp(e)
		total += mass[i]
	}
	target := q * total
	cum := 0.0
	for i := range ts {
		next := cum + mass[i]
		if next >= target {
			if mass[i] <= 0 {
				return ts[i]
			}
			frac := (target - cum) / mass[i]
			lo := ts[i]
			hi := lo
			if i+1 < len(ts) {
				hi = ts[i+1]
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return 1
}

// normalFallback approximates the quantile with a moment-matched normal
// clamped to [min, max] — used when the max-entropy solve is infeasible.
func normalFallback(min, max float64, m []float64, q float64) float64 {
	mean := m[1]
	variance := m[2] - m[1]*m[1]
	if variance <= 0 {
		return math.Min(math.Max(mean, min), max)
	}
	z := math.Sqrt2 * math.Erfinv(2*q-1)
	v := mean + z*math.Sqrt(variance)
	return math.Min(math.Max(v, min), max)
}
