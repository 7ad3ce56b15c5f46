package stats

import (
	"math/rand"
	"testing"

	"effitest/internal/la"
)

func randomMVN(t *testing.T, r *rand.Rand, n int) *MVN {
	t.Helper()
	g := la.NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = r.NormFloat64()
	}
	sigma := g.Mul(g.T())
	for i := 0; i < n; i++ {
		sigma.Add(i, i, 0.5)
	}
	mu := make([]float64, n)
	for i := range mu {
		mu[i] = 10 * r.Float64()
	}
	m, err := NewMVN(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPredictorMatchesConditional pins the prefactored kernel bit-for-bit
// against the one-shot Conditional across random splits and observations —
// the contract the per-chip fast path in internal/core depends on.
func TestPredictorMatchesConditional(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(12)
		m := randomMVN(t, r, n)
		perm := r.Perm(n)
		nt := 1 + r.Intn(n-1)
		known, unknown := perm[:nt], perm[nt:]

		p, err := m.Predictor(unknown, known)
		if err != nil {
			t.Fatal(err)
		}
		var ws la.Workspace
		ws.Require(p.ScratchLenBatch(1))
		mu := make([]float64, len(unknown))
		for rep := 0; rep < 3; rep++ {
			obs := make([]float64, nt)
			for i := range obs {
				obs[i] = m.Mu[known[i]] + r.NormFloat64()
			}
			cond, err := m.Conditional(unknown, known, obs)
			if err != nil {
				t.Fatal(err)
			}
			ws.Reset()
			p.MuTo(mu, obs, &ws)
			for i := range mu {
				if mu[i] != cond.Mu[i] {
					t.Fatalf("trial %d: mu[%d] = %v, conditional %v", trial, i, mu[i], cond.Mu[i])
				}
			}
			if d := p.SigmaPrime.MaxAbsDiff(cond.Sigma); d != 0 {
				t.Fatalf("trial %d: Σ' differs by %v", trial, d)
			}
		}
	}
}

// TestPredictorMuToZeroAlloc asserts the per-observation application is
// allocation-free once the workspace is warm.
func TestPredictorMuToZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := randomMVN(t, r, 10)
	p, err := m.Predictor([]int{0, 2, 4, 6}, []int{1, 3, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, p.NumKnown())
	for i := range obs {
		obs[i] = m.Mu[2*i+1] + 0.1*float64(i)
	}
	dst := make([]float64, p.NumUnknown())
	var ws la.Workspace
	ws.Require(p.ScratchLenBatch(1))
	ws.Reset()
	p.MuTo(dst, obs, &ws) // warm-up
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		p.MuTo(dst, obs, &ws)
	})
	if allocs != 0 {
		t.Fatalf("MuTo allocated %.1f times per run", allocs)
	}
}

func TestPredictorErrors(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := randomMVN(t, r, 4)
	if _, err := m.Predictor([]int{0}, nil); err == nil {
		t.Fatal("expected error for empty known set")
	}
	if _, err := m.Predictor([]int{0, 1}, []int{1, 2}); err == nil {
		t.Fatal("expected error for overlapping index sets")
	}
}
