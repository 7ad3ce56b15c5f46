// Package ssta implements first-order canonical-form statistical static
// timing analysis: delays are affine functions of a shared basis of
// independent standard-normal factors plus an independent random term.
//
//	d = Mean + Σ_k Coef[k]·z_k + Rand·ε
//
// with z the chip-wide variation factors (from package variation's spatial
// grid) and ε private to the delay. Sums, scaling, covariance and Clark's
// max operation are provided; package circuit builds path delays as sums of
// gate canonicals, and the resulting covariance matrices drive EffiTest's
// statistical prediction.
package ssta

import (
	"fmt"
	"math"

	"effitest/internal/la"
	"effitest/internal/stats"
)

// Canon is a first-order canonical delay form.
type Canon struct {
	Mean float64
	Coef []float64 // loadings on the shared factor basis
	Rand float64   // sigma of the independent random part (>= 0)
}

// NewCanon builds a canonical form; coef is copied.
func NewCanon(mean float64, coef []float64, rnd float64) Canon {
	c := make([]float64, len(coef))
	copy(c, coef)
	return Canon{Mean: mean, Coef: c, Rand: math.Abs(rnd)}
}

// Var returns the total variance.
func (c Canon) Var() float64 {
	v := c.Rand * c.Rand
	for _, a := range c.Coef {
		v += a * a
	}
	return v
}

// Sigma returns the standard deviation.
func (c Canon) Sigma() float64 { return math.Sqrt(c.Var()) }

// Add adds b to c in place over the same basis, writing into c's Coef. The
// independent parts combine in quadrature (they are independent by
// construction).
func (c *Canon) Add(b Canon) {
	if len(c.Coef) != len(b.Coef) {
		panic(fmt.Sprintf("ssta: basis mismatch %d vs %d", len(c.Coef), len(b.Coef)))
	}
	c.Mean += b.Mean
	for i := range c.Coef {
		c.Coef[i] += b.Coef[i]
	}
	c.Rand = math.Hypot(c.Rand, b.Rand)
}

// Scale returns s*c.
func Scale(c Canon, s float64) Canon {
	coef := make([]float64, len(c.Coef))
	for i := range coef {
		coef[i] = s * c.Coef[i]
	}
	return Canon{Mean: s * c.Mean, Coef: coef, Rand: math.Abs(s) * c.Rand}
}

// ShiftMean returns c with its mean moved by delta.
func ShiftMean(c Canon, delta float64) Canon {
	coef := make([]float64, len(c.Coef))
	copy(coef, c.Coef)
	return Canon{Mean: c.Mean + delta, Coef: coef, Rand: c.Rand}
}

// Cov returns the covariance of two canonical forms (independent parts never
// co-vary across distinct delays).
func Cov(a, b Canon) float64 {
	if len(a.Coef) != len(b.Coef) {
		panic("ssta: basis mismatch in Cov")
	}
	return la.Dot(a.Coef, b.Coef)
}

// Corr returns the correlation coefficient of two canonical forms, zero if
// either is deterministic.
func Corr(a, b Canon) float64 {
	sa, sb := a.Sigma(), b.Sigma()
	if sa == 0 || sb == 0 {
		return 0
	}
	return Cov(a, b) / (sa * sb)
}

// Sample realizes the delay for factor vector z and private standard-normal
// draw eps.
func (c Canon) Sample(z []float64, eps float64) float64 {
	if len(z) != len(c.Coef) {
		panic("ssta: factor vector length mismatch")
	}
	return c.Mean + la.Dot(c.Coef, z) + c.Rand*eps
}

// Max returns Clark's moment-matching approximation of max(a, b) as a new
// canonical form. The correlated coefficients are blended with the tightness
// probability; the independent sigma is set to preserve the Clark variance
// (clamped at zero if the blended coefficients already exceed it).
func Max(a, b Canon) Canon {
	va, vb := a.Var(), b.Var()
	cov := Cov(a, b)
	theta := math.Sqrt(math.Max(va+vb-2*cov, 0))
	if theta < 1e-15 {
		// Equal up to a mean shift: max is simply the larger-mean form.
		if a.Mean >= b.Mean {
			return NewCanon(a.Mean, a.Coef, a.Rand)
		}
		return NewCanon(b.Mean, b.Coef, b.Rand)
	}
	alpha := (a.Mean - b.Mean) / theta
	phi := stats.StdPDF(alpha)
	Phi := stats.StdCDF(alpha)
	PhiC := 1 - Phi

	mean := a.Mean*Phi + b.Mean*PhiC + theta*phi
	second := (a.Mean*a.Mean+va)*Phi + (b.Mean*b.Mean+vb)*PhiC + (a.Mean+b.Mean)*theta*phi
	variance := math.Max(second-mean*mean, 0)

	coef := make([]float64, len(a.Coef))
	sumsq := 0.0
	for i := range coef {
		coef[i] = Phi*a.Coef[i] + PhiC*b.Coef[i]
		sumsq += coef[i] * coef[i]
	}
	rnd := 0.0
	if variance > sumsq {
		rnd = math.Sqrt(variance - sumsq)
	} else if sumsq > 0 && variance > 0 {
		// Shrink coefficients to match the Clark variance exactly.
		s := math.Sqrt(variance / sumsq)
		for i := range coef {
			coef[i] *= s
		}
	}
	return Canon{Mean: mean, Coef: coef, Rand: rnd}
}

// MaxAll folds Max over a non-empty set of canonical forms.
func MaxAll(cs []Canon) Canon {
	if len(cs) == 0 {
		panic("ssta: MaxAll of empty set")
	}
	acc := cs[0]
	for _, c := range cs[1:] {
		acc = Max(acc, c)
	}
	return acc
}
