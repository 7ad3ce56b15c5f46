package stats

import (
	"errors"
	"fmt"
	"math/rand"

	"effitest/internal/la"
)

// MVN is a multivariate normal distribution N(Mu, Sigma).
type MVN struct {
	Mu    []float64
	Sigma *la.Matrix

	chol  *la.Matrix // lazily computed Cholesky factor (possibly ridged)
	ridge float64
}

// NewMVN constructs a multivariate normal. Sigma must be square and match
// len(mu); it is not factorized until needed.
func NewMVN(mu []float64, sigma *la.Matrix) (*MVN, error) {
	if sigma.Rows != sigma.Cols {
		return nil, errors.New("stats: covariance must be square")
	}
	if len(mu) != sigma.Rows {
		return nil, fmt.Errorf("stats: mean length %d != covariance order %d", len(mu), sigma.Rows)
	}
	return &MVN{Mu: mu, Sigma: sigma}, nil
}

// Dim returns the dimensionality.
func (m *MVN) Dim() int { return len(m.Mu) }

func (m *MVN) factor() error {
	if m.chol != nil {
		return nil
	}
	l, ridge, err := la.CholeskyRidge(m.Sigma, 1e-10, 12)
	if err != nil {
		return fmt.Errorf("stats: covariance not factorizable: %w", err)
	}
	m.chol, m.ridge = l, ridge
	return nil
}

// Sample draws one sample using the provided random stream.
func (m *MVN) Sample(r *rand.Rand) ([]float64, error) {
	if err := m.factor(); err != nil {
		return nil, err
	}
	n := m.Dim()
	z := make([]float64, n)
	for i := range z {
		z[i] = r.NormFloat64()
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := m.Mu[i]
		for k := 0; k <= i; k++ {
			s += m.chol.At(i, k) * z[k]
		}
		x[i] = s
	}
	return x, nil
}

// SampleN draws n samples as rows of a matrix.
func (m *MVN) SampleN(r *rand.Rand, n int) (*la.Matrix, error) {
	out := la.NewMatrix(n, m.Dim())
	for i := 0; i < n; i++ {
		x, err := m.Sample(r)
		if err != nil {
			return nil, err
		}
		copy(out.Data[i*out.Cols:(i+1)*out.Cols], x)
	}
	return out, nil
}

// Conditional computes the conditional distribution of the variables at
// indices `unknown` given that the variables at indices `known` have been
// observed at the given values. This is the paper's Eqs. (4)–(5):
//
//	μ'  = μ_u + Σ_ut Σ_t⁻¹ (observed − μ_t)
//	Σ'  = Σ_u − Σ_ut Σ_t⁻¹ Σ_tu
//
// The returned MVN has dimension len(unknown). Indices must be disjoint.
//
// Conditional is a thin wrapper over Predictor: it builds the prefactored
// kernel, applies it to one observation vector, and discards it. Callers
// that condition the same (unknown, known) split on many observation
// vectors should hold a CondPredictor instead — the factorization and the
// conditional covariance then happen once.
func (m *MVN) Conditional(unknown, known []int, observed []float64) (*MVN, error) {
	if len(known) != len(observed) {
		return nil, errors.New("stats: observed values length mismatch")
	}
	if len(known) == 0 {
		sub := m.Sigma.Submatrix(unknown, unknown)
		mu := make([]float64, len(unknown))
		for i, u := range unknown {
			mu[i] = m.Mu[u]
		}
		return NewMVN(mu, sub)
	}
	p, err := m.Predictor(unknown, known)
	if err != nil {
		return nil, err
	}
	mu := make([]float64, len(unknown))
	var ws la.Workspace
	p.MuTo(mu, observed, &ws)
	return NewMVN(mu, p.SigmaPrime)
}

// CondPredictor is the prefactored conditional-estimation kernel behind
// Conditional: for one fixed (unknown, known) index split it holds the
// ridged Cholesky factor of Σ_t, the cross-covariance Σ_ut, the prior means
// and the (observation-independent) conditional covariance Σ′ of Eq. (5).
// Applying it to an observation vector (MuTo, Eq. 4) reduces to two
// triangular solves and one matrix-vector product — no factorization and,
// given a warm Workspace, no allocation. A CondPredictor is immutable after
// construction and safe for concurrent use with per-caller workspaces.
type CondPredictor struct {
	// MuT / MuU are the prior means of the known / unknown variables, in
	// split order.
	MuT, MuU []float64
	// LT is the (possibly ridged) Cholesky factor of Σ_t.
	LT *la.Matrix
	// SigUT is the cross-covariance Σ_ut (rows: unknown, cols: known).
	SigUT *la.Matrix
	// SigmaPrime is the conditional covariance Σ′ (Eq. 5) — diagonal-clamped
	// and symmetrized exactly as Conditional returns it.
	SigmaPrime *la.Matrix
}

// Predictor prefactorizes the conditional distribution of the variables at
// `unknown` given observations of the variables at `known`. The index sets
// must be disjoint and known must be non-empty. The floating-point results
// are bit-identical to what Conditional computes from the same split.
func (m *MVN) Predictor(unknown, known []int) (*CondPredictor, error) {
	if len(known) == 0 {
		return nil, errors.New("stats: predictor requires at least one known index")
	}
	seen := map[int]bool{}
	for _, k := range known {
		seen[k] = true
	}
	for _, u := range unknown {
		if seen[u] {
			return nil, fmt.Errorf("stats: index %d is both known and unknown", u)
		}
	}

	sigT := m.Sigma.Submatrix(known, known)    // Σ_t
	sigUT := m.Sigma.Submatrix(unknown, known) // Σ_ut
	sigU := m.Sigma.Submatrix(unknown, unknown)

	lt, _, err := la.CholeskyRidge(sigT, 1e-10, 12)
	if err != nil {
		return nil, fmt.Errorf("stats: conditional: Σ_t not factorizable: %w", err)
	}

	muT := make([]float64, len(known))
	for i, k := range known {
		muT[i] = m.Mu[k]
	}
	muU := make([]float64, len(unknown))
	for i, u := range unknown {
		muU[i] = m.Mu[u]
	}

	// Σ' = Σ_u − Σ_ut Σ_t⁻¹ Σ_tu. Solve per column of Σ_tu = Σ_utᵀ.
	nt, nu := len(known), len(unknown)
	corr := la.NewMatrix(nu, nu)
	col := make([]float64, nt)
	for j := 0; j < nu; j++ {
		for i := 0; i < nt; i++ {
			col[i] = sigUT.At(j, i)
		}
		x := la.CholSolve(lt, col)
		for i := 0; i < nu; i++ {
			corr.Set(i, j, la.Dot(sigUT.Row(i), x))
		}
	}
	sigPrime := sigU.SubM(corr)
	// Clamp tiny negative diagonals introduced by round-off: conditional
	// variances are mathematically non-negative.
	for i := 0; i < nu; i++ {
		if sigPrime.At(i, i) < 0 {
			sigPrime.Set(i, i, 0)
		}
	}
	// Symmetrize.
	for i := 0; i < nu; i++ {
		for j := i + 1; j < nu; j++ {
			v := 0.5 * (sigPrime.At(i, j) + sigPrime.At(j, i))
			sigPrime.Set(i, j, v)
			sigPrime.Set(j, i, v)
		}
	}
	return &CondPredictor{MuT: muT, MuU: muU, LT: lt, SigUT: sigUT, SigmaPrime: sigPrime}, nil
}

// NumKnown returns the number of observed variables the predictor expects.
func (p *CondPredictor) NumKnown() int { return len(p.MuT) }

// NumUnknown returns the number of predicted variables.
func (p *CondPredictor) NumUnknown() int { return len(p.MuU) }

// ScratchLenBatch returns the workspace floats one MuBatchTo call over a
// k-column observation block takes.
func (p *CondPredictor) ScratchLenBatch(k int) int { return len(p.MuT) * k }

// MuTo computes the conditional mean μ' (Eq. 4) for one observation vector
// into dst (length NumUnknown): MuBatchTo over n×1 views of the two vectors,
// taking ScratchLenBatch(1) floats from ws. With a warm workspace the call
// performs no heap allocation.
func (p *CondPredictor) MuTo(dst, observed []float64, ws *la.Workspace) {
	p.MuBatchTo(&la.Matrix{Rows: len(dst), Cols: 1, Data: dst},
		&la.Matrix{Rows: len(observed), Cols: 1, Data: observed}, ws)
}

// MuBatchTo computes the conditional mean μ' (Eq. 4) for K observation
// vectors in one TRSM-shaped kernel call: observed is a NumKnown×K block
// whose column j is the j-th observation vector, dst a NumUnknown×K block
// receiving column j's conditional means. The Cholesky factor and the
// cross-covariance stream through the cache once for all K systems. The
// per-chip prediction path calls it at K = 1 through MuTo.
//
// Column j of dst is bit-identical to μ_u + Σ_ut·CholSolve(L_t, obs_j − μ_t)
// with the product accumulated first: the multi-RHS kernels perform the
// allocating functions' floating-point operations in the same order per
// column. The call takes ScratchLenBatch(K) floats from ws and, with a warm
// workspace, performs no heap allocation.
func (p *CondPredictor) MuBatchTo(dst, observed *la.Matrix, ws *la.Workspace) {
	nt, nu := len(p.MuT), len(p.MuU)
	if observed.Rows != nt {
		panic(fmt.Sprintf("stats: predictor observed block %dx%d != %d known rows", observed.Rows, observed.Cols, nt))
	}
	if dst.Rows != nu || dst.Cols != observed.Cols {
		panic(fmt.Sprintf("stats: predictor dst block %dx%d, want %dx%d", dst.Rows, dst.Cols, nu, observed.Cols))
	}
	// delta = observed - μ_t ; W = Σ_t⁻¹ delta, solved in place per column.
	delta := ws.TakeMatrix(nt, observed.Cols)
	for i := 0; i < nt; i++ {
		mu := p.MuT[i]
		src := observed.RowView(i)
		row := delta.RowView(i)
		for j, v := range src {
			row[j] = v - mu
		}
	}
	la.SolveCholeskyMultiTo(&delta, p.LT, &delta)
	// μ' = μ_u + Σ_ut·W. Addition is commutative, so accumulating the
	// product first is bit-identical to μ_u + dot(row, w).
	la.MulMatTo(dst, p.SigUT, &delta)
	for i := 0; i < nu; i++ {
		mu := p.MuU[i]
		row := dst.RowView(i)
		for j := range row {
			row[j] += mu
		}
	}
}
