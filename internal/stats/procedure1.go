package stats

import (
	"math"

	"effitest/internal/la"
)

// Procedure1 returns the two integers Procedure 1 (§3.1) reads from a
// group's covariance: k, the number of eigenvalues above kaiser × their
// mean (at least 1), and selected, the not yet selected row with the
// largest absolute coefficient on each of the top k principal components,
// in pick order. They are exactly Procedure1Jacobi's.
//
// The certified fast path needs no full decomposition. It reduces cov to
// tridiagonal form, counts the eigenvalues on either side of the threshold
// with Sturm sequences, and for k = 1 finds the top eigenvector by inverse
// iteration. It accepts its answer only when error bounds prove Jacobi
// would give the same one: no eigenvalue lies within the combined error of
// the reduction, Jacobi and Jacobi's mean of the threshold, and the winning
// loading leads the runner-up by more than both eigenvectors' errors. Any
// other case (k > 1, a failed bound, an asymmetric or non-finite matrix)
// falls back to Procedure1Jacobi; certified reports which path answered.
func Procedure1(cov *la.Matrix, kaiser float64) (k int, selected []int, certified bool, err error) {
	if k, selected, ok := procedure1Fast(cov, kaiser); ok {
		return k, selected, true, nil
	}
	k, selected, err = Procedure1Jacobi(cov, kaiser)
	return k, selected, false, err
}

// Procedure1Jacobi is Procedure 1 on the full Jacobi decomposition (NewPCA):
// the reference Procedure1 is certified against, and its fallback.
func Procedure1Jacobi(cov *la.Matrix, kaiser float64) (k int, selected []int, err error) {
	pca, err := NewPCA(cov)
	if err != nil {
		return 0, nil, err
	}
	k = sharedComponents(pca, kaiser)
	return k, pca.SelectRepresentatives(k), nil
}

// sharedComponents counts the components that carry correlation
// information: eigenvalues above kaiser × mean eigenvalue (at least one).
func sharedComponents(p *PCA, kaiser float64) int {
	total := p.TotalVar()
	n := len(p.Vars)
	if total <= 0 || n == 0 {
		return 1
	}
	mean := total / float64(n)
	k := 0
	for _, v := range p.Vars {
		if v > kaiser*mean {
			k++
		}
	}
	if k < 1 {
		k = 1
	}
	return k
}

// unitRoundoff is u = 2⁻⁵³, the relative rounding error of one float64
// operation.
const unitRoundoff = 0x1p-53

// procedure1Fast is Procedure1's certified path; ok is false when it cannot
// vouch for Jacobi's answer.
//
// The error budget is deliberately loose. With F = ‖cov‖_F, n its order and
// u the unit roundoff, e = 64·n²·u·F bounds how far the eigenvalues of the
// reduced matrix (and of the neighbour each Sturm count is exact for) lie
// from cov's, and eJ = 10⁻¹²·(1+F) + e how far Jacobi's lie: its rotations'
// rounding plus the off-diagonal norm its stopping test leaves. A
// certificate requires every reduced eigenvalue above −2e, so clamping a
// negative Jacobi eigenvalue to 0 moves it by at most 3e more, and Jacobi's
// threshold kaiser × mean lies within kaiser·(eJ + 3e + 2u·trace) + 4u·τ of
// τ = kaiser·trace/n. No reduced eigenvalue may lie within δ of τ: twice
// that plus eJ plus e.
func procedure1Fast(cov *la.Matrix, kaiser float64) (int, []int, bool) {
	n := cov.Rows
	if cov.Cols != n || n < 2 || !(kaiser >= 0) || math.IsInf(kaiser, 0) {
		return 0, nil, false
	}
	fro, trace := 0.0, 0.0
	for i := range n {
		for j := range n {
			v := cov.Data[i*n+j]
			if math.IsNaN(v) || math.IsInf(v, 0) || v != cov.Data[j*n+i] {
				return 0, nil, false
			}
			fro += v * v
		}
		trace += cov.Data[i*n+i]
	}
	fro = math.Sqrt(fro)
	if !(trace > 0) || math.IsInf(fro, 0) {
		return 0, nil, false
	}
	u, nf := unitRoundoff, float64(n)
	e := 64 * nf * nf * u * fro
	eJ := 1e-12*(1+fro) + e
	tau := kaiser * trace / nf
	delta := 2 * (eJ + kaiser*(eJ+3*e+2*u*trace) + 4*u*tau + e)

	tri := tridiagonalize(cov)
	if tri.above(-2*e) != n {
		return 0, nil, false
	}
	c := tri.above(tau + delta)
	if tri.above(tau-delta) != c {
		return 0, nil, false
	}
	if c > 1 {
		return 0, nil, false
	}

	// k = 1: the top eigenvector's arg-max |loading|.
	lam1Hi := tri.kthUpper(1)
	lam2Hi := tri.kthUpper(2)
	y := tri.backTransform(tri.inverseIterate(lam1Hi))
	theta, res := rayleighResidual(cov, y)
	roundMV := 2 * nf * u * fro // rounding of the products with cov
	gap := theta - roundMV - (lam2Hi + e) - eJ
	if !(gap > 0) || !(theta > 1e-200) {
		return 0, nil, false
	}
	errFast := math.Sqrt2*(res+roundMV)/gap + 4*nf*u
	errJacobi := math.Sqrt2*2*eJ/gap + 64*nf*nf*u
	best, second := -1, -1
	for i, v := range y {
		switch a := math.Abs(v); {
		case best < 0 || a > math.Abs(y[best]):
			best, second = i, best
		case second < 0 || a > math.Abs(y[second]):
			second = i
		}
	}
	lead := math.Abs(y[best]) - math.Abs(y[second])
	if !(lead > 2*(errFast+errJacobi)+8*u*math.Abs(y[best])) {
		return 0, nil, false
	}
	return 1, []int{best}, true
}

// tridiag is Qᵀ·A·Q for a symmetric A: diagonal d, off-diagonal off
// (off[i] couples rows i and i+1), and the Householder reflectors whose
// product is Q.
type tridiag struct {
	d, off, off2 []float64 // off2[i] = off[i]²
	// Reflector k is I − tau[k]·v·vᵀ on rows k+1.., with v[0] = 1 and
	// v[1:] stored in house[k].
	house [][]float64
	tau   []float64
	pivot float64 // smallest |pivot| a Sturm count lets through
}

// tridiagonalize reduces the symmetric a (order at least 2) by Householder
// reflections, updating only the lower triangle of a working copy.
func tridiagonalize(a *la.Matrix) *tridiag {
	n := a.Rows
	w := make([][]float64, n) // lower triangle, row i holds columns 0..i
	for i := range n {
		w[i] = append([]float64(nil), a.Data[i*n:i*n+i+1]...)
	}
	t := &tridiag{d: make([]float64, n), off: make([]float64, n-1), off2: make([]float64, n-1),
		house: make([][]float64, max(0, n-2)), tau: make([]float64, max(0, n-2))}
	v := make([]float64, n)
	p := make([]float64, n)
	for k := 0; k+2 < n; k++ {
		// x = a[k+1.., k]; reflect it onto the first unit vector.
		alpha := w[k+1][k]
		xnorm := 0.0
		for i := k + 2; i < n; i++ {
			xnorm = math.Hypot(xnorm, w[i][k])
		}
		t.d[k] = w[k][k]
		if xnorm == 0 {
			t.off[k] = alpha
			continue
		}
		beta := -math.Copysign(math.Hypot(alpha, xnorm), alpha)
		tau := (beta - alpha) / beta
		scale := 1 / (alpha - beta)
		m := n - k - 1 // trailing order; v and p are indexed from row k+1
		v[0] = 1
		for i := 1; i < m; i++ {
			v[i] = w[k+1+i][k] * scale
		}
		t.off[k], t.tau[k] = beta, tau
		t.house[k] = append([]float64(nil), v[1:m]...)
		// p = tau·A₂₂·v over the lower triangle, then w = p − (tau/2)(pᵀv)v.
		clear(p[:m])
		for i := range m {
			row := w[k+1+i][k+1:]
			vi, s := v[i], 0.0
			for j := range i {
				s += row[j] * v[j]
				p[j] += row[j] * vi
			}
			p[i] += s + row[i]*vi
		}
		pv := 0.0
		for i := range m {
			p[i] *= tau
			pv += p[i] * v[i]
		}
		half := tau / 2 * pv
		for i := range m {
			p[i] -= half * v[i]
		}
		// A₂₂ −= v·wᵀ + w·vᵀ.
		for i := range m {
			row := w[k+1+i][k+1:]
			vi, pi := v[i], p[i]
			for j := range i + 1 {
				row[j] -= vi*p[j] + pi*v[j]
			}
		}
	}
	t.d[n-2], t.d[n-1], t.off[n-2] = w[n-2][n-2], w[n-1][n-1], w[n-1][n-2]
	scale := 0.0
	for i := range n {
		scale = max(scale, math.Abs(t.d[i]))
	}
	for i, o := range t.off {
		t.off2[i] = o * o
		scale = max(scale, math.Abs(o))
	}
	t.pivot = math.Max(scale*unitRoundoff, math.SmallestNonzeroFloat64)
	return t
}

// above returns the number of eigenvalues of the tridiagonal matrix above
// x: n less the negative pivots of the LDLᵀ factorization of T − xI
// (Sylvester's law of inertia). A zero pivot is nudged off zero, so the
// count is exact for a neighbour of T within a few ulps of its entries.
func (t *tridiag) above(x float64) int {
	neg := 0
	q := 1.0
	for i, d := range t.d {
		if i == 0 {
			q = d - x
		} else {
			q = d - x - t.off2[i-1]/q
		}
		if math.Abs(q) < t.pivot {
			q = -t.pivot
		}
		if q < 0 {
			neg++
		}
	}
	return len(t.d) - neg
}

// kthUpper returns an upper bound, tight to a few ulps, on the tridiagonal
// matrix's k-th largest eigenvalue: the least x found by bisection on the
// Gershgorin interval with at most k−1 eigenvalues above it.
func (t *tridiag) kthUpper(k int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, d := range t.d {
		r := 0.0
		if i > 0 {
			r += math.Abs(t.off[i-1])
		}
		if i < len(t.off) {
			r += math.Abs(t.off[i])
		}
		lo, hi = math.Min(lo, d-r), math.Max(hi, d+r)
	}
	lo -= t.pivot
	hi += t.pivot
	for range 200 {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if t.above(mid) <= k-1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// inverseIterate returns an approximate eigenvector of the tridiagonal
// matrix for its top eigenvalue, given an upper bound sigma on it: a few
// steps of inverse iteration with σI − T, which is positive definite or
// nearly so, factored without pivoting.
func (t *tridiag) inverseIterate(sigma float64) []float64 {
	n := len(t.d)
	sigma += 4 * t.pivot // keep σI − T definite
	// LDLᵀ of σI − T: diagonal dd, unit lower bidiagonal l.
	dd := make([]float64, n)
	l := make([]float64, n)
	for i := range n {
		dd[i] = sigma - t.d[i]
		if i > 0 {
			l[i] = -t.off[i-1] / dd[i-1]
			dd[i] -= l[i] * -t.off[i-1]
		}
		if dd[i] < t.pivot {
			dd[i] = t.pivot
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	for range 3 {
		for i := 1; i < n; i++ {
			x[i] -= l[i] * x[i-1]
		}
		for i := range n {
			x[i] /= dd[i]
		}
		for i := n - 2; i >= 0; i-- {
			x[i] -= l[i+1] * x[i+1]
		}
		normalize(x)
	}
	return x
}

// backTransform maps a vector of the tridiagonal basis back to the
// original one: Q·x, the reflectors applied last to first.
func (t *tridiag) backTransform(x []float64) []float64 {
	for k := len(t.tau) - 1; k >= 0; k-- {
		tau := t.tau[k]
		if tau == 0 {
			continue
		}
		y := x[k+1:]
		h := t.house[k]
		s := y[0]
		for i, hv := range h {
			s += hv * y[i+1]
		}
		s *= tau
		y[0] -= s
		for i, hv := range h {
			y[i+1] -= s * hv
		}
	}
	normalize(x)
	return x
}

// rayleighResidual returns the Rayleigh quotient θ = yᵀAy of the unit
// vector y and the residual norm ‖Ay − θy‖.
func rayleighResidual(a *la.Matrix, y []float64) (theta, res float64) {
	n := len(y)
	ay := make([]float64, n)
	for i := range n {
		ay[i] = la.Dot(a.Data[i*n:(i+1)*n], y)
	}
	theta = la.Dot(y, ay)
	for i := range n {
		r := ay[i] - theta*y[i]
		res += r * r
	}
	return theta, math.Sqrt(res)
}

func normalize(x []float64) {
	s := 0.0
	for _, v := range x {
		s = math.Hypot(s, v)
	}
	for i := range x {
		x[i] /= s
	}
}
