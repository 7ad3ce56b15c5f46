package stats

import (
	"math"
	"testing"

	"effitest/internal/la"
	"effitest/internal/rng"
)

func TestMVNSampleMoments(t *testing.T) {
	mu := []float64{1, -2}
	sigma := la.NewMatrixFrom([][]float64{{2, 0.8}, {0.8, 1}})
	m, err := NewMVN(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1, "mvn")
	const n = 30000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		s, err := m.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		xs[i], ys[i] = s[0], s[1]
	}
	if d := math.Abs(Mean(xs) - 1); d > 0.05 {
		t.Errorf("mean x off by %v", d)
	}
	if d := math.Abs(Mean(ys) + 2); d > 0.05 {
		t.Errorf("mean y off by %v", d)
	}
	if d := math.Abs(Variance(xs) - 2); d > 0.1 {
		t.Errorf("var x off by %v", d)
	}
	if d := math.Abs(Covariance(xs, ys) - 0.8); d > 0.05 {
		t.Errorf("cov off by %v", d)
	}
}

func TestMVNShapeErrors(t *testing.T) {
	if _, err := NewMVN([]float64{1}, la.NewMatrix(2, 2)); err == nil {
		t.Error("expected mean/cov mismatch error")
	}
	if _, err := NewMVN([]float64{1, 2}, la.NewMatrix(2, 3)); err == nil {
		t.Error("expected non-square error")
	}
}

func TestConditionalKnownBivariate(t *testing.T) {
	// Classic result: for unit-variance pair with correlation ρ,
	// X | Y=y ~ N(ρ y, 1-ρ²).
	rho := 0.9
	sigma := la.NewMatrixFrom([][]float64{{1, rho}, {rho, 1}})
	m, err := NewMVN([]float64{0, 0}, sigma)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := m.Conditional([]int{0}, []int{1}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cond.Mu[0]-rho*2) > 1e-9 {
		t.Errorf("conditional mean = %v, want %v", cond.Mu[0], rho*2)
	}
	if math.Abs(cond.Sigma.At(0, 0)-(1-rho*rho)) > 1e-9 {
		t.Errorf("conditional var = %v, want %v", cond.Sigma.At(0, 0), 1-rho*rho)
	}
}

func TestConditionalVarianceNeverIncreases(t *testing.T) {
	// Paper's point after Eq. (5): conditioning shrinks variance.
	r := rng.New(7, "condvar")
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(5)
		b := la.NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		sigma := b.Mul(b.T())
		for i := 0; i < n; i++ {
			sigma.Add(i, i, 0.5)
		}
		mu := make([]float64, n)
		m, err := NewMVN(mu, sigma)
		if err != nil {
			t.Fatal(err)
		}
		known := []int{0, 1}
		unknown := make([]int, 0, n-2)
		for i := 2; i < n; i++ {
			unknown = append(unknown, i)
		}
		cond, err := m.Conditional(unknown, known, []float64{1, -1})
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range unknown {
			if cond.Sigma.At(i, i) > sigma.At(u, u)+1e-9 {
				t.Fatalf("conditional variance grew: %v > %v", cond.Sigma.At(i, i), sigma.At(u, u))
			}
		}
	}
}

func TestConditionalPerfectCorrelationPinsValue(t *testing.T) {
	// Two perfectly correlated variables: observing one determines the other.
	sigma := la.NewMatrixFrom([][]float64{{4, 4}, {4, 4}})
	m, err := NewMVN([]float64{10, 10}, sigma)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := m.Conditional([]int{0}, []int{1}, []float64{13})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cond.Mu[0]-13) > 1e-3 {
		t.Errorf("conditional mean = %v, want 13", cond.Mu[0])
	}
	if cond.Sigma.At(0, 0) > 1e-3 {
		t.Errorf("conditional variance = %v, want ~0", cond.Sigma.At(0, 0))
	}
}

func TestConditionalAgainstMonteCarlo(t *testing.T) {
	// Estimate E[X0 | X2 ≈ v] by rejection from samples, compare to formula.
	sigma := la.NewMatrixFrom([][]float64{
		{1.0, 0.7, 0.5},
		{0.7, 1.0, 0.6},
		{0.5, 0.6, 1.0},
	})
	m, err := NewMVN([]float64{0, 0, 0}, sigma)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3, "condmc")
	const v, band = 1.0, 0.08
	var sum float64
	var count int
	for i := 0; i < 400000; i++ {
		s, err := m.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s[2]-v) < band {
			sum += s[0]
			count++
		}
	}
	mc := sum / float64(count)
	cond, err := m.Conditional([]int{0}, []int{2}, []float64{v})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc-cond.Mu[0]) > 0.05 {
		t.Errorf("MC conditional mean %v vs analytic %v", mc, cond.Mu[0])
	}
}

func TestConditionalNoObservations(t *testing.T) {
	sigma := la.NewMatrixFrom([][]float64{{1, 0.5}, {0.5, 2}})
	m, err := NewMVN([]float64{3, 4}, sigma)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := m.Conditional([]int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cond.Mu[0] != 4 || cond.Sigma.At(0, 0) != 2 {
		t.Errorf("marginal wrong: mu=%v var=%v", cond.Mu[0], cond.Sigma.At(0, 0))
	}
}

func TestConditionalOverlapRejected(t *testing.T) {
	sigma := la.NewMatrixFrom([][]float64{{1, 0}, {0, 1}})
	m, _ := NewMVN([]float64{0, 0}, sigma)
	if _, err := m.Conditional([]int{0}, []int{0}, []float64{1}); err == nil {
		t.Error("expected overlap error")
	}
	if _, err := m.Conditional([]int{0}, []int{1}, []float64{1, 2}); err == nil {
		t.Error("expected length mismatch error")
	}
}
