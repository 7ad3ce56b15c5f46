// Differential suite for the prediction kernels: the plan-time prefactored
// path (kernels baked at Prepare/Bind, applied per chip without
// allocation) must be bit-for-bit identical to an independent naive oracle
// — each group's joint Gaussian rebuilt from the circuit covariance and
// conditioned with MVN.Conditional — across the conformance scenario
// matrix. Any single-ULP drift here would silently invalidate the golden
// corpus.
package effitest_test

import (
	"context"
	"math"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/conformance"
	"effitest/internal/core"
	"effitest/internal/la"
	"effitest/internal/stats"
)

// differentialScenarios picks the pipeline cells of the conformance matrix:
// every tiny64 cell always, and under full (non-short) runs one heavy cell
// per Table-1 circuit so the big-group kernels are exercised too.
func differentialScenarios(t *testing.T) []conformance.Scenario {
	t.Helper()
	var out []conformance.Scenario
	for _, sc := range conformance.DefaultMatrix() {
		if sc.Kind != conformance.KindPipeline {
			continue
		}
		if sc.Heavy {
			if testing.Short() {
				continue
			}
			// One cell per heavy circuit keeps the full suite's runtime
			// bounded; the remaining axes are covered by tiny64.
			if sc.Align != core.AlignHeuristic || sc.Eps != 0.002 || sc.Seed != 1 {
				continue
			}
		}
		out = append(out, sc)
	}
	return out
}

// naiveCondition is the oracle: it conditions group g's joint Gaussian on
// observed values of its tested paths and returns the conditional mean and
// σ′ of its untested paths (in group order), or ok=false when the group has
// nothing to predict.
func naiveCondition(t *testing.T, c *circuit.Circuit, g core.Group, tested map[int]bool, observe func(p int) float64) (unknown []int, mu, sigma []float64, ok bool) {
	t.Helper()
	var localKnown, localUnknown []int
	var obs []float64
	for i, p := range g.Paths {
		if tested[p] {
			localKnown = append(localKnown, i)
			obs = append(obs, observe(p))
		} else {
			localUnknown = append(localUnknown, i)
			unknown = append(unknown, p)
		}
	}
	if len(unknown) == 0 {
		return nil, nil, nil, false
	}
	cov := c.CovMatrix()
	n := len(g.Paths)
	cm := la.NewMatrix(n, n)
	mean := make([]float64, n)
	for i, a := range g.Paths {
		mean[i] = c.Paths[a].Max.Mean
		for j, b := range g.Paths {
			cm.Set(i, j, cov[a][b])
		}
	}
	mvn, err := stats.NewMVN(mean, cm)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := mvn.Conditional(localUnknown, localKnown, obs)
	if err != nil {
		t.Fatal(err)
	}
	sigma = make([]float64, len(unknown))
	for i := range unknown {
		sigma[i] = math.Sqrt(math.Max(cond.Sigma.At(i, i), 0))
	}
	return unknown, cond.Mu, sigma, true
}

func testedSet(plan *core.Plan) map[int]bool {
	set := make(map[int]bool, len(plan.Tested))
	for _, p := range plan.Tested {
		set[p] = true
	}
	return set
}

// TestPredictKernelsMatchNaive re-predicts every untested path of every
// differential scenario's chips with the naive oracle, conditioning on the
// chip's measured upper bounds, and requires the kernel path's windows
// bitwise. Measurement precedes prediction and configuration consumes only
// the bounds, so equal windows mean an equal chip outcome.
func TestPredictKernelsMatchNaive(t *testing.T) {
	ctx := context.Background()
	for _, sc := range differentialScenarios(t) {
		t.Run(sc.Name(), func(t *testing.T) {
			res, err := conformance.RunPipeline(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			plan := res.Engine.Plan()
			tested := testedSet(plan)
			for i, out := range res.Outs {
				got := out.Bounds
				for _, g := range plan.Groups {
					unknown, mu, sigma, ok := naiveCondition(t, res.Circuit, g, tested, func(p int) float64 { return got.Hi[p] })
					if !ok || len(unknown) == len(g.Paths) {
						// Nothing predicted, or no measurement: the flow
						// keeps the prior windows, which the goldens pin.
						continue
					}
					for j, p := range unknown {
						lo := mu[j] - 3*sigma[j]
						if lo < 0 {
							lo = 0
						}
						if hi := mu[j] + 3*sigma[j]; got.Lo[p] != lo || got.Hi[p] != hi {
							t.Fatalf("chip %d path %d: kernel [%v, %v] vs naive [%v, %v]",
								i, p, got.Lo[p], got.Hi[p], lo, hi)
						}
					}
				}
			}
		})
	}
}

// TestPredictorSigmasMatchNaive pins the baked conditional sigmas bitwise
// against the naive oracle's σ′ at the plan's tested set (σ′ does not
// depend on the observed values, so the oracle conditions on the means).
func TestPredictorSigmasMatchNaive(t *testing.T) {
	ctx := context.Background()
	for _, sc := range differentialScenarios(t) {
		t.Run(sc.Name(), func(t *testing.T) {
			res, err := conformance.RunPipeline(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			plan := res.Engine.Plan()
			baked := plan.PredictorSigmas()
			if baked == nil {
				t.Fatal("prepared plan has no baked kernels")
			}
			c := res.Circuit
			if len(baked) != c.NumPaths() {
				t.Fatalf("length mismatch: %d vs %d", len(baked), c.NumPaths())
			}
			tested := testedSet(plan)
			for p := range baked {
				if tested[p] != math.IsNaN(baked[p]) {
					t.Fatalf("path %d: tested=%v but baked σ′ = %v", p, tested[p], baked[p])
				}
			}
			for _, g := range plan.Groups {
				unknown, _, sigma, ok := naiveCondition(t, c, g, tested, func(p int) float64 { return c.Paths[p].Max.Mean })
				if !ok {
					continue
				}
				for j, p := range unknown {
					if baked[p] != sigma[j] {
						t.Fatalf("path %d: σ′ diverges: baked %v, naive %v", p, baked[p], sigma[j])
					}
				}
			}
		})
	}
}
