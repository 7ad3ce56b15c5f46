package circuit

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// denseCov is the covariance and correlation the kernel replaced: every
// entry a full ssta.Cov (la.Dot) over the basis.
func denseCov(c *Circuit) (cov, corr [][]float64) {
	n := len(c.Paths)
	cov, corr = make([][]float64, n), make([][]float64, n)
	for i := range n {
		cov[i], corr[i] = make([]float64, n), make([]float64, n)
	}
	for i := range n {
		for j := i; j < n; j++ {
			v := c.Cov(i, j)
			cov[i][j], cov[j][i] = v, v
		}
	}
	sd := make([]float64, n)
	for i := range n {
		sd[i] = math.Sqrt(cov[i][i])
	}
	for i := range n {
		for j := range n {
			if i == j {
				corr[i][j] = 1
			} else if sd[i] > 0 && sd[j] > 0 {
				corr[i][j] = cov[i][j] / (sd[i] * sd[j])
			}
		}
	}
	return cov, corr
}

// sparseLoadings rewrites c's max-delay loadings into the shapes the run
// walk must handle: dense rows, all-zero rows (zero correlation), rows of
// −0.0, interior zero runs, −0.0 inside a run, and negative loadings.
func sparseLoadings(c *Circuit) {
	negZero := math.Copysign(0, -1)
	for i := range c.Paths {
		mx := append([]float64(nil), c.Paths[i].Max.Coef...)
		switch i % 6 {
		case 0:
			for k := range mx {
				if mx[k] == 0 {
					mx[k] = 1e-3 * float64(k%7+1)
				}
			}
		case 1:
			clear(mx)
		case 2:
			for k := range mx {
				mx[k] = negZero
			}
		case 3:
			for k := range mx {
				if k%4 == 1 || k%9 == 5 {
					mx[k] = 0
				}
			}
		case 4:
			mx[0], mx[len(mx)-1], mx[len(mx)/2] = negZero, negZero, negZero
		case 5:
			for k := 1; k < len(mx); k += 2 {
				mx[k] = -mx[k]
			}
		}
		c.Paths[i].Max.Coef = mx
	}
}

// TestCovMatrixMatchesDense pins the covariance kernel to the dense loop by
// math.Float64bits on every Table-1 profile (mem_ctrl and pci_bridge32 skip
// under -short), Figure 7's inflated copy, and a sparse variant whose path
// count is no multiple of the lane width.
func TestCovMatrixMatchesDense(t *testing.T) {
	var circuits []*Circuit
	for _, p := range Table1Profiles {
		if testing.Short() && p.NumPaths > 1000 {
			continue
		}
		c, err := Generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
		if p.Name == "s9234" {
			c.CovMatrix() // the copy must not reuse the base's
			inflated, err := c.WithInflatedSigma(1.1)
			if err != nil {
				t.Fatal(err)
			}
			circuits = append(circuits, inflated)
		}
	}
	sparse, err := Generate(TinyProfile("sparse", 20, 160, 3, 29), 3)
	if err != nil {
		t.Fatal(err)
	}
	sparseLoadings(sparse)
	circuits = append(circuits, sparse)
	for _, c := range circuits {
		t.Run(fmt.Sprintf("%s/%d", c.Name, len(c.Paths)), func(t *testing.T) {
			wantCov, wantCorr := denseCov(c)
			gotCov, gotCorr := c.CovMatrix(), c.CorrMatrix()
			for i := range wantCov {
				for j := range wantCov {
					if math.Float64bits(gotCov[i][j]) != math.Float64bits(wantCov[i][j]) {
						t.Fatalf("cov[%d][%d] = %v, dense loop %v", i, j, gotCov[i][j], wantCov[i][j])
					}
					if math.Float64bits(gotCorr[i][j]) != math.Float64bits(wantCorr[i][j]) {
						t.Fatalf("corr[%d][%d] = %v, dense loop %v", i, j, gotCorr[i][j], wantCorr[i][j])
					}
				}
			}
		})
	}
}

// TestLoadingRunsCovFingerprintConcurrent hits the memo of several circuits
// from many goroutines at once: every caller of a circuit must get the one
// memoised covariance, correlation, run table and fingerprint, and each must
// equal a fresh derivation from an identical circuit.
func TestLoadingRunsCovFingerprintConcurrent(t *testing.T) {
	const circuits, callers = 4, 8
	cs := make([]*Circuit, circuits)
	fresh := make([]*Circuit, circuits)
	for i := range cs {
		p := TinyProfile(fmt.Sprintf("memo%d", i), 20+4*i, 200, 3, 24+5*i)
		var err error
		if cs[i], err = Generate(p, int64(i+1)); err != nil {
			t.Fatal(err)
		}
		if fresh[i], err = Generate(p, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	type seen struct {
		cov, corr *float64
		runs      *PathRuns
		fp        string
	}
	got := make([][callers]seen, circuits)
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range circuits {
				i := (k + g) % circuits // callers start on different circuits
				c := cs[i]
				fp, err := c.Fingerprint()
				if err != nil {
					t.Error(err)
					return
				}
				got[i][g] = seen{&c.CovMatrix()[0][0], &c.CorrMatrix()[0][0], &c.LoadingRuns()[0], fp}
			}
		}()
	}
	wg.Wait()
	for i, c := range cs {
		for g := 1; g < callers; g++ {
			if got[i][g] != got[i][0] {
				t.Fatalf("circuit %d: caller %d got a different memo than caller 0", i, g)
			}
		}
		wantFP, err := fresh[i].Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got[i][0].fp != wantFP {
			t.Fatalf("circuit %d: fingerprint %s, fresh %s", i, got[i][0].fp, wantFP)
		}
		wantCov, wantCorr := denseCov(fresh[i])
		for r := range wantCov {
			for q := range wantCov {
				if math.Float64bits(c.CovMatrix()[r][q]) != math.Float64bits(wantCov[r][q]) ||
					math.Float64bits(c.CorrMatrix()[r][q]) != math.Float64bits(wantCorr[r][q]) {
					t.Fatalf("circuit %d: entry (%d, %d) differs from a fresh dense derivation", i, r, q)
				}
			}
		}
	}
}
