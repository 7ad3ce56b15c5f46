package stats

import (
	"math/rand"
	"testing"

	"effitest/internal/la"
)

// condMeanOracle is the allocating form of Eq. 4 for one observation vector:
// μ_u + Σ_ut·CholSolve(L_t, obs − μ_t), with the product taken first and μ_u
// added after — the operation order MuBatchTo documents per column.
func condMeanOracle(p *CondPredictor, obs []float64) []float64 {
	delta := make([]float64, len(obs))
	for i := range obs {
		delta[i] = obs[i] - p.MuT[i]
	}
	mu := p.SigUT.MulVec(la.CholSolve(p.LT, delta))
	for i := range mu {
		mu[i] += p.MuU[i]
	}
	return mu
}

// TestMuBatchMatchesMuTo pins the K-column batched conditional mean bitwise
// against the allocating oracle, column by column, across the batch widths
// the prediction pipeline uses (including the degenerate K=1, which is what
// MuTo runs).
func TestMuBatchMatchesMuTo(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 2, 7, 64} {
		for trial := 0; trial < 5; trial++ {
			n := 2 + r.Intn(12)
			m := randomMVN(t, r, n)
			perm := r.Perm(n)
			nt := 1 + r.Intn(n-1)
			known, unknown := perm[:nt], perm[nt:]

			p, err := m.Predictor(unknown, known)
			if err != nil {
				t.Fatal(err)
			}
			obs := la.NewMatrix(nt, k)
			for i := range obs.Data {
				obs.Data[i] = m.Mu[known[i%nt]] + r.NormFloat64()
			}

			var bw la.Workspace
			bw.Require(p.ScratchLenBatch(k))
			got := la.NewMatrix(len(unknown), k)
			p.MuBatchTo(got, obs, &bw)

			col := make([]float64, nt)
			for j := 0; j < k; j++ {
				for i := range col {
					col[i] = obs.At(i, j)
				}
				want := condMeanOracle(p, col)
				for i := range want {
					if got.At(i, j) != want[i] {
						t.Fatalf("k=%d trial=%d: column %d row %d: batch %v != oracle %v",
							k, trial, j, i, got.At(i, j), want[i])
					}
				}
			}
		}
	}
}

// TestMuBatchZeroAlloc asserts the batched kernel performs no heap
// allocation once the workspace is warm.
func TestMuBatchZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	m := randomMVN(t, r, 10)
	p, err := m.Predictor([]int{0, 2, 4}, []int{1, 3, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	obs := la.NewMatrix(p.NumKnown(), k)
	for i := range obs.Data {
		obs.Data[i] = r.NormFloat64()
	}
	dst := la.NewMatrix(p.NumUnknown(), k)
	var ws la.Workspace
	ws.Require(p.ScratchLenBatch(k))
	ws.Reset()
	p.MuBatchTo(dst, obs, &ws) // warm-up
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		p.MuBatchTo(dst, obs, &ws)
	})
	if allocs != 0 {
		t.Fatalf("MuBatchTo allocated %.1f times per run after warm-up", allocs)
	}
}

// TestMuBatchShapePanics pins the shape contract of the batched kernel.
func TestMuBatchShapePanics(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	m := randomMVN(t, r, 6)
	p, err := m.Predictor([]int{0, 1}, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	var ws la.Workspace
	for name, fn := range map[string]func(){
		"observed-rows": func() { p.MuBatchTo(la.NewMatrix(2, 3), la.NewMatrix(2, 3), &ws) },
		"dst-rows":      func() { p.MuBatchTo(la.NewMatrix(3, 3), la.NewMatrix(3, 3), &ws) },
		"dst-cols":      func() { p.MuBatchTo(la.NewMatrix(2, 2), la.NewMatrix(3, 3), &ws) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}
