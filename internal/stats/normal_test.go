package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestStdCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.6448536269514722, 0.95},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := StdCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("StdCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// TestNormalPDFCDFConsistency checks the standard normal density against a
// central difference of its CDF: Clark's max (ssta.Max) uses both, so a
// mismatch would move every nominal period and buffer range.
func TestNormalPDFCDFConsistency(t *testing.T) {
	const h = 1e-5
	for _, x := range []float64{-6, -3, -1, 0, 0.5, 2, 4} {
		num := (StdCDF(x+h) - StdCDF(x-h)) / (2 * h)
		if math.Abs(num-StdPDF(x)) > 1e-9 {
			t.Errorf("dΦ/dx at %v = %v, φ = %v", x, num, StdPDF(x))
		}
	}
	if got, want := StdPDF(0), 1/math.Sqrt(2*math.Pi); got != want {
		t.Errorf("φ(0) = %v, want %v", got, want)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestQuantileEmpirical(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %v, want 2", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if c := Correlation(xs, ys); math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", c)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if c := Correlation(xs, neg); math.Abs(c+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", c)
	}
	if Correlation(xs, []float64{1, 1, 1, 1, 1}) != 0 {
		t.Error("constant series should give 0 correlation")
	}
}

func TestEmpiricalMomentsOfSampler(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const mu, sigma = -3, 0.5
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = mu + sigma*r.NormFloat64()
	}
	if m := Mean(xs); math.Abs(m-(-3)) > 0.02 {
		t.Errorf("sample mean = %v", m)
	}
	if s := StdDev(xs); math.Abs(s-0.5) > 0.02 {
		t.Errorf("sample sd = %v", s)
	}
}
