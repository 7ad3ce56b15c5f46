package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		return l.Mul(l.T()).MaxAbsDiff(a) < 1e-9*float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotSPD")
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square")
	}
}

func TestCholeskyRidgeRecoversSingular(t *testing.T) {
	// Rank-1 PSD matrix: ones.
	a := NewMatrixFrom([][]float64{{1, 1}, {1, 1}})
	l, ridge, err := CholeskyRidge(a, 1e-10, 10)
	if err != nil {
		t.Fatalf("CholeskyRidge failed: %v", err)
	}
	if ridge <= 0 {
		t.Fatalf("expected positive ridge, got %v", ridge)
	}
	if d := l.Mul(l.T()).MaxAbsDiff(a); d > 1e-4 {
		t.Fatalf("ridge factorization too far: %g", d)
	}
}

func TestCholSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		x := randomVec(rng, n)
		b := a.MulVec(x)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		got := CholSolve(l, b)
		for i := range got {
			if !almostEq(got[i], x[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		vals, vecs, err := EigenSym(a, 0)
		if err != nil {
			return false
		}
		// Reconstruct V diag(vals) Vᵀ.
		d := NewMatrix(n, n)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		rec := vecs.Mul(d).Mul(vecs.T())
		return rec.MaxAbsDiff(a) < 1e-7*float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(rng, 7)
	_, vecs, err := EigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := vecs.T().Mul(vecs).MaxAbsDiff(Identity(7)); d > 1e-9 {
		t.Fatalf("VᵀV deviates from I by %g", d)
	}
}

func TestEigenSymDescendingPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 6)
	vals, _, err := EigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
	for _, v := range vals {
		if v <= 0 {
			t.Fatalf("SPD matrix produced non-positive eigenvalue %v", v)
		}
	}
}

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewMatrixFrom([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Fatalf("eigenvalues = %v, want [3 1]", vals)
	}
	// First eigenvector should be ±(1,1)/√2.
	v0 := vecs.Col(0)
	if !almostEq(math.Abs(v0[0]), 1/math.Sqrt2, 1e-8) || !almostEq(math.Abs(v0[1]), 1/math.Sqrt2, 1e-8) {
		t.Fatalf("eigenvector = %v", v0)
	}
}

func TestEigenSymRejects(t *testing.T) {
	if _, _, err := EigenSym(NewMatrix(2, 3), 0); err == nil {
		t.Fatal("expected error for non-square")
	}
	asym := NewMatrixFrom([][]float64{{1, 5}, {0, 1}})
	if _, _, err := EigenSym(asym, 0); err == nil {
		t.Fatal("expected error for asymmetric")
	}
}
