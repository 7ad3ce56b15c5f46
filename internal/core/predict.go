package core

import (
	"context"
	"fmt"

	"effitest/internal/circuit"
	"effitest/internal/la"
	"effitest/internal/stats"
)

// PredictSigmas returns, for every path, the conditional standard deviation
// σ' it would have after the given tested paths of its group are measured
// (Eq. 5). Tested paths get NaN. Because σ' does not depend on the measured
// values (only on the covariance), this is computable before any testing —
// that is what §3.2 exploits to pick slot-filler paths.
//
// It is the kernel bake of kernels.go evaluated at the given tested set, so
// slot filling and per-chip prediction share one conditional-Gaussian
// implementation.
func PredictSigmas(c *circuit.Circuit, groups []Group, tested []int) ([]float64, error) {
	ks, err := bakePredictKernels(context.Background(), c, groups, tested, 1)
	if err != nil {
		return nil, err
	}
	return ks.predictSigmas(c.NumPaths()), nil
}

func splitGroup(g Group, testedSet map[int]bool) (known, unknown []int) {
	for _, p := range g.Paths {
		if testedSet[p] {
			known = append(known, p)
		} else {
			unknown = append(unknown, p)
		}
	}
	return known, unknown
}

func localIndices(members []int, subset []int) []int {
	pos := make(map[int]int, len(members))
	for i, m := range members {
		pos[m] = i
	}
	out := make([]int, len(subset))
	for i, s := range subset {
		out[i] = pos[s]
	}
	return out
}

func groupMVN(c *circuit.Circuit, g Group) (*stats.MVN, error) {
	if g.mvn != nil {
		return g.mvn, nil
	}
	cov := c.CovMatrix()
	n := len(g.Paths)
	sigma := la.NewMatrix(n, n)
	mu := make([]float64, n)
	for i, a := range g.Paths {
		mu[i] = c.Paths[a].Max.Mean
		for j, b := range g.Paths {
			sigma.Set(i, j, cov[a][b])
		}
	}
	mvn, err := stats.NewMVN(mu, sigma)
	if err != nil {
		return nil, fmt.Errorf("core: group MVN: %w", err)
	}
	return mvn, nil
}
