package la

import (
	"errors"
	"math"
	"sort"
)

// EigenSym computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns eigenvalues in descending order and the
// matrix of corresponding eigenvectors as columns: A = V * diag(vals) * Vᵀ.
//
// Jacobi is O(n³) per sweep but unconditionally stable. It is the reference
// and the fallback of stats.Procedure1, which decomposes a group covariance
// in full only when its certified fast path cannot vouch for the answer.
func EigenSym(a *Matrix, tol float64) (vals []float64, vecs *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("la: eigensym requires a square matrix")
	}
	if !a.IsSymmetric(1e-8 * (1 + maxAbs(a))) {
		return nil, nil, errors.New("la: eigensym requires a symmetric matrix")
	}
	if tol <= 0 {
		tol = 1e-12
	}
	n := a.Rows
	m := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(m)
		if off < tol*(1+frobNorm(m)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(m, v, p, q, c, s)
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m.At(i, i)
	}
	// Sort by descending eigenvalue, permuting eigenvector columns along.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// rotate applies a Jacobi rotation on rows/cols p,q of m and accumulates the
// rotation into v.
func rotate(m, v *Matrix, p, q int, c, s float64) {
	n := m.Rows
	for i := 0; i < n; i++ {
		mip, miq := m.At(i, p), m.At(i, q)
		m.Set(i, p, c*mip-s*miq)
		m.Set(i, q, s*mip+c*miq)
	}
	for i := 0; i < n; i++ {
		mpi, mqi := m.At(p, i), m.At(q, i)
		m.Set(p, i, c*mpi-s*mqi)
		m.Set(q, i, s*mpi+c*mqi)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func offDiagNorm(m *Matrix) float64 {
	s := 0.0
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if r != c {
				s += m.At(r, c) * m.At(r, c)
			}
		}
	}
	return math.Sqrt(s)
}

func frobNorm(m *Matrix) float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

func maxAbs(m *Matrix) float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}
