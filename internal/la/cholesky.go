package la

import (
	"errors"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a pivot
// that is not positive, i.e. the input is not symmetric positive definite.
var ErrNotSPD = errors.New("la: matrix is not symmetric positive definite")

// Cholesky computes the lower-triangular factor L with A = L*Lᵀ.
// A must be symmetric positive definite; only the lower triangle is read.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("la: cholesky requires a square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return l, nil
}

// CholeskyRidge factorizes A + ridge*I, retrying with geometrically growing
// ridge until the factorization succeeds or maxTries is exhausted. It returns
// the factor and the ridge actually used. This is the standard remedy for
// covariance matrices that are PSD-but-singular due to perfectly correlated
// paths (common in EffiTest's clustered path sets).
func CholeskyRidge(a *Matrix, ridge float64, maxTries int) (*Matrix, float64, error) {
	if ridge <= 0 {
		ridge = 1e-12
	}
	// First try without any ridge at all.
	if l, err := Cholesky(a); err == nil {
		return l, 0, nil
	}
	cur := ridge
	for try := 0; try < maxTries; try++ {
		b := a.Clone()
		for i := 0; i < b.Rows; i++ {
			b.Add(i, i, cur)
		}
		if l, err := Cholesky(b); err == nil {
			return l, cur, nil
		}
		cur *= 10
	}
	return nil, 0, ErrNotSPD
}

// SolveLower solves L*y = b for y where L is lower triangular with nonzero
// diagonal.
func SolveLower(l *Matrix, b []float64) []float64 {
	n := l.Rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	return y
}

// SolveUpperT solves Lᵀ*x = y for x given the lower-triangular L.
func SolveUpperT(l *Matrix, y []float64) []float64 {
	n := l.Rows
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// CholSolve solves A*x = b given the Cholesky factor L of A.
func CholSolve(l *Matrix, b []float64) []float64 {
	return SolveUpperT(l, SolveLower(l, b))
}
