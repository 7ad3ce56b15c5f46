// Package stats implements the probability and statistics layer of the
// EffiTest reproduction: the standard normal CDF and density that Clark's
// max uses, multivariate normals with conditional (Schur-complement)
// inference — the paper's Eqs. (4)–(5) — principal component analysis, and
// descriptive statistics.
package stats

import "math"

// StdCDF is the standard normal CDF.
func StdCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// StdPDF is the standard normal density.
func StdPDF(x float64) float64 { return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi) }

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if fewer than two
// samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the empirical p-quantile of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sortFloats(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Covariance returns the unbiased sample covariance of two equal-length
// series.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: covariance length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1)
}

// Correlation returns the Pearson correlation of two series (0 if either is
// constant).
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

func sortFloats(xs []float64) {
	// Insertion sort is fine for the sizes used here, but quantiles may be
	// asked over 10k chips, so use a simple quicksort.
	var qs func(lo, hi int)
	qs = func(lo, hi int) {
		for lo < hi {
			p := xs[(lo+hi)/2]
			i, j := lo, hi
			for i <= j {
				for xs[i] < p {
					i++
				}
				for xs[j] > p {
					j--
				}
				if i <= j {
					xs[i], xs[j] = xs[j], xs[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				qs(lo, j)
				lo = i
			} else {
				qs(i, hi)
				hi = j
			}
		}
	}
	if len(xs) > 1 {
		qs(0, len(xs)-1)
	}
}
