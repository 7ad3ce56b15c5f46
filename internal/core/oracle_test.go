package core

// This file holds the naive §3.4 conditional-Gaussian oracle the
// prediction kernels are pinned against: per group, rebuild the joint
// distribution and condition it with MVN.Conditional — no prefactoring, no
// scratch reuse, no batching.

import (
	"context"
	"math"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/la"
	"effitest/internal/tester"
)

// PredictBounds runs §3.4's conditional estimation naively: for every
// untested path, the conditional mean (Eq. 4) is computed from the *upper*
// bounds of the tested delays (conservative per the paper), the conditional
// sigma from Eq. 5, and the path's window is set to μ' ± 3σ'. Tested paths
// keep their measured windows. The bounds struct is updated in place.
func PredictBounds(c *circuit.Circuit, groups []Group, tested []int, b *Bounds) error {
	testedSet := make(map[int]bool, len(tested))
	for _, p := range tested {
		testedSet[p] = true
	}
	for _, g := range groups {
		known, unknown := splitGroup(g, testedSet)
		if len(unknown) == 0 || len(known) == 0 {
			// Nothing to predict, or no measurement available: keep the
			// prior ±3σ windows already in b.
			continue
		}
		mvn, err := groupMVN(c, g)
		if err != nil {
			return err
		}
		obs := make([]float64, len(known))
		for i, k := range known {
			obs[i] = b.Hi[k] // conservative: measured upper bounds
		}
		cond, err := mvn.Conditional(localIndices(g.Paths, unknown), localIndices(g.Paths, known), obs)
		if err != nil {
			return err
		}
		for i, p := range unknown {
			sigma := math.Sqrt(math.Max(cond.Sigma.At(i, i), 0))
			mu := cond.Mu[i]
			lo := mu - 3*sigma
			if lo < 0 {
				lo = 0
			}
			b.Lo[p] = lo
			b.Hi[p] = mu + 3*sigma
		}
	}
	return nil
}

// naiveSigmas is the σ′ oracle: MVN.Conditional at the group means (σ′
// does not depend on the observed values). Tested paths get NaN.
func naiveSigmas(c *circuit.Circuit, groups []Group, tested []int) ([]float64, error) {
	testedSet := make(map[int]bool, len(tested))
	for _, p := range tested {
		testedSet[p] = true
	}
	out := make([]float64, c.NumPaths())
	for i := range out {
		out[i] = math.NaN()
	}
	for _, g := range groups {
		known, unknown := splitGroup(g, testedSet)
		if len(unknown) == 0 {
			continue
		}
		mvn, err := groupMVN(c, g)
		if err != nil {
			return nil, err
		}
		obs := make([]float64, len(known))
		for i, k := range known {
			obs[i] = c.Paths[k].Max.Mean
		}
		cond, err := mvn.Conditional(localIndices(g.Paths, unknown), localIndices(g.Paths, known), obs)
		if err != nil {
			return nil, err
		}
		for i, p := range unknown {
			out[p] = math.Sqrt(math.Max(cond.Sigma.At(i, i), 0))
		}
	}
	return out, nil
}

// runChipNaive is the whole-chip oracle: the flow's measurement and
// configuration phases around PredictBounds instead of the kernels.
func (pl *Plan) runChipNaive(ctx context.Context, ch *tester.Chip, Td float64) (*ChipOutcome, error) {
	scr := pl.newChipScratch()
	out, b, err := pl.measureChip(ctx, ch, RunOptions{}, scr)
	if err != nil {
		return nil, err
	}
	if err := PredictBounds(pl.Circuit, pl.Groups, pl.Tested, b); err != nil {
		return nil, err
	}
	pl.finishChip(ch, Td, out, b, scr, nil)
	return out, nil
}

// kernelPredict bakes the kernels for (groups, tested) and applies them to
// b: the production prediction path, for tests that drive it on hand-built
// bounds.
func kernelPredict(t testing.TB, c *circuit.Circuit, groups []Group, tested []int, b *Bounds) {
	t.Helper()
	ks, err := bakePredictKernels(context.Background(), c, groups, tested, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ws la.Workspace
	ks.predictInto(b, &ws)
}
