package stats

import (
	"errors"
	"math"

	"effitest/internal/la"
)

// PCA is the principal component decomposition of a covariance matrix:
// Sigma = V diag(Vars) Vᵀ with eigenvalues (component variances) sorted in
// descending order.
type PCA struct {
	Vars     []float64  // eigenvalues (variance captured per component)
	Loadings *la.Matrix // columns are unit-norm principal directions
}

// NewPCA eigendecomposes a covariance matrix. Tiny negative eigenvalues from
// round-off are clamped to zero.
func NewPCA(cov *la.Matrix) (*PCA, error) {
	if cov.Rows != cov.Cols {
		return nil, errors.New("stats: PCA requires a square covariance matrix")
	}
	vals, vecs, err := la.EigenSym(cov, 0)
	if err != nil {
		return nil, err
	}
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	return &PCA{Vars: vals, Loadings: vecs}, nil
}

// TotalVar returns the sum of component variances (trace of the covariance).
func (p *PCA) TotalVar() float64 {
	s := 0.0
	for _, v := range p.Vars {
		s += v
	}
	return s
}

// Coefficient returns the loading of variable `varIdx` on component `comp`,
// scaled by the component's standard deviation. This is the coefficient of
// the unit-variance principal component in the variable's expansion
// x_i = Σ_c (V_ic √λ_c) z_c, the quantity Procedure 1 ranks when selecting
// which paths to measure.
func (p *PCA) Coefficient(varIdx, comp int) float64 {
	return p.Loadings.At(varIdx, comp) * math.Sqrt(p.Vars[comp])
}

// SelectRepresentatives implements the paper's path-selection rule (§3.1):
// for each of the first k principal components, pick — among the not yet
// selected variables — the one with the largest absolute coefficient for
// that component. Returns the selected variable indices in pick order.
func (p *PCA) SelectRepresentatives(k int) []int {
	n := p.Loadings.Rows
	if k > n {
		k = n
	}
	selected := make([]int, 0, k)
	used := make([]bool, n)
	for c := 0; c < k; c++ {
		best, bestVal := -1, -1.0
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			if a := math.Abs(p.Coefficient(v, c)); a > bestVal {
				best, bestVal = v, a
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		selected = append(selected, best)
	}
	return selected
}
