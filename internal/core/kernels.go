package core

// This file holds the plan-time prediction kernels: the conditional
// structure of §3.2/§3.4 — which tested paths condition which untested
// paths, per correlation group — is fixed the moment the Plan's tested set
// is final, so Prepare (or Bind, on a plan restored from an artifact)
// prefactorizes it once: every runnable plan carries its kernels. Per chip,
// conditional prediction then reduces to two triangular solves and one
// matrix-vector product per group over a pooled scratch workspace: no maps,
// no matrix allocation, no re-factorization, and results bit-identical to
// the naive groupMVN+Conditional oracle (pinned by the differential tests).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"effitest/internal/circuit"
	"effitest/internal/la"
	"effitest/internal/pool"
	"effitest/internal/stats"
)

// groupKernel is one correlation group's baked conditional predictor.
type groupKernel struct {
	group   int   // index into Plan.Groups
	known   []int // global tested path ids, in group order
	unknown []int // global predicted path ids, in group order
	// pred is nil when the group has no measured path; prediction then
	// keeps the prior ±3σ windows and sigma holds the marginal prior σ.
	pred *stats.CondPredictor
	// sigma is the conditional σ′ per unknown path (Eq. 5) — it depends
	// only on the covariance, never on a chip's measurements, so it is a
	// plan-time constant.
	sigma []float64
}

// predictKernels is the baked prediction state of one Plan.
type predictKernels struct {
	groups     []groupKernel
	scratchLen int // workspace floats one chip's prediction takes for its largest group
	predGroups int // groups with at least one measured path
	predPaths  int // untested paths predicted per chip
}

// bakePredictKernels prefactorizes the conditional predictors for the given
// tested set: per group, the ridged Cholesky of Σ_t, the cross-covariance
// gain and the conditional sigmas. Groups are independent, so the bake fans
// out across workers goroutines (0 = all CPUs) — on a large circuit this is
// the expensive tail of Prepare/Bind, and warm plan-cache loads pay it on
// every process start. Results are deterministic: each group's kernel is a
// pure function of (circuit, group, tested) and the output keeps group
// order.
func bakePredictKernels(ctx context.Context, c *circuit.Circuit, groups []Group, tested []int, workers int) (*predictKernels, error) {
	testedSet := make(map[int]bool, len(tested))
	for _, p := range tested {
		testedSet[p] = true
	}
	// The group covariance cache on the circuit is filled lazily; touch it
	// once up front so the parallel bake reads it without contention.
	c.CovMatrix()

	perGroup := make([]*groupKernel, len(groups))
	bakeOne := func(gi int) error {
		g := &groups[gi]
		known, unknown := splitGroup(*g, testedSet)
		if len(unknown) == 0 {
			return nil
		}
		mvn, err := groupMVN(c, *g)
		if err != nil {
			return err
		}
		gk := &groupKernel{group: gi, known: known, unknown: unknown, sigma: make([]float64, len(unknown))}
		localUnknown := localIndices(g.Paths, unknown)
		if len(known) == 0 {
			// No measured path: σ′ degrades to the marginal prior sigma —
			// the same values MVN.Conditional's zero-known arm reports.
			sub := mvn.Sigma.Submatrix(localUnknown, localUnknown)
			for i := range unknown {
				gk.sigma[i] = math.Sqrt(math.Max(sub.At(i, i), 0))
			}
		} else {
			localKnown := localIndices(g.Paths, known)
			pred, err := mvn.Predictor(localUnknown, localKnown)
			if err != nil {
				return fmt.Errorf("core: group %d predictor: %w", gi, err)
			}
			gk.pred = pred
			for i := range unknown {
				gk.sigma[i] = math.Sqrt(math.Max(pred.SigmaPrime.At(i, i), 0))
			}
		}
		perGroup[gi] = gk
		return nil
	}
	if err := pool.ForEach(ctx, len(groups), workers, bakeOne); err != nil {
		return nil, err
	}

	ks := &predictKernels{}
	for _, gk := range perGroup {
		if gk == nil {
			continue
		}
		if gk.pred != nil {
			if need := len(gk.known) + len(gk.unknown) + gk.pred.ScratchLenBatch(1); need > ks.scratchLen {
				ks.scratchLen = need
			}
			ks.predGroups++
			ks.predPaths += len(gk.unknown)
		}
		ks.groups = append(ks.groups, *gk)
	}
	return ks, nil
}

// predict applies one baked group predictor to a chip's bounds: gather the
// measured upper bounds into the observation vector, one MuTo (Eq. 4),
// write the μ′ ± 3σ′ windows back. Allocation-free once ws is warm.
func (gk *groupKernel) predict(b *Bounds, ws *la.Workspace) {
	ws.Reset()
	obs := ws.Take(len(gk.known))
	for i, k := range gk.known {
		obs[i] = b.Hi[k] // conservative: measured upper bounds
	}
	mu := ws.Take(len(gk.unknown))
	gk.pred.MuTo(mu, obs, ws)
	for i, p := range gk.unknown {
		m, sigma := mu[i], gk.sigma[i]
		lo := m - 3*sigma
		if lo < 0 {
			lo = 0
		}
		b.Lo[p] = lo
		b.Hi[p] = m + 3*sigma
	}
}

// predictInto runs §3.4 prediction on one chip's bounds: every baked group
// predictor writes its μ′ ± 3σ′ windows back. Groups without a measured path
// keep their prior ±3σ windows. Allocation-free once ws holds scratchLen
// floats.
func (ks *predictKernels) predictInto(b *Bounds, ws *la.Workspace) {
	for i := range ks.groups {
		gk := &ks.groups[i]
		if gk.pred == nil {
			continue
		}
		gk.predict(b, ws)
	}
}

// predictSigmas scatters the baked σ′ into a per-path slice (tested paths
// get NaN) — what PredictSigmas reports for the kernels' tested set.
func (ks *predictKernels) predictSigmas(numPaths int) []float64 {
	out := make([]float64, numPaths)
	for i := range out {
		out[i] = math.NaN()
	}
	for i := range ks.groups {
		gk := &ks.groups[i]
		for j, p := range gk.unknown {
			out[p] = gk.sigma[j]
		}
	}
	return out
}

// installKernels installs the plan's baked kernels and its per-worker
// scratch pool.
func (pl *Plan) installKernels(ks *predictKernels) {
	pl.kernels = ks
	pl.scratch = &sync.Pool{New: func() any { return pl.newChipScratch() }}
}

// errNoKernels is returned for a plan built by neither Prepare nor Bind (a
// hand-assembled literal): it has no kernels to predict with.
var errNoKernels = errors.New("core: plan has no prediction kernels (build it with Prepare or Bind)")

// PredictorSigmas returns the baked conditional σ′ per path for the plan's
// tested set, or nil when the plan has no kernels (a hand-assembled
// literal). The differential tests pin it bitwise against an independent
// MVN.Conditional oracle.
func (pl *Plan) PredictorSigmas() []float64 {
	if pl.kernels == nil {
		return nil
	}
	return pl.kernels.predictSigmas(pl.Circuit.NumPaths())
}

// chipScratch is the reusable per-worker state of the online flow: the
// numeric workspace of the prediction kernels plus the alignment buffers
// runBatchTest refills on every frequency step.
type chipScratch struct {
	ws     la.Workspace
	items  []alignItem
	order  []int // assignWeights rank buffer
	active []int
	al     alignScratch
}

// newChipScratch sizes a scratch for this plan: the kernel workspace at its
// baked high-water mark and the alignment buffers at the largest batch.
func (pl *Plan) newChipScratch() *chipScratch {
	scr := &chipScratch{}
	if pl.kernels != nil {
		scr.ws.Require(pl.kernels.scratchLen)
	}
	maxBatch := 0
	for _, b := range pl.Batches {
		if len(b) > maxBatch {
			maxBatch = len(b)
		}
	}
	scr.items = make([]alignItem, 0, maxBatch)
	scr.order = make([]int, 0, maxBatch)
	scr.active = make([]int, 0, maxBatch)
	return scr
}

// getScratch hands out a pooled scratch (workers hold one across many
// chips); a plan built by neither Prepare nor Bind — a hand-assembled
// literal — degrades to a fresh scratch per call.
func (pl *Plan) getScratch() *chipScratch {
	if pl.scratch == nil {
		return pl.newChipScratch()
	}
	return pl.scratch.Get().(*chipScratch)
}

func (pl *Plan) putScratch(scr *chipScratch) {
	if pl.scratch != nil {
		pl.scratch.Put(scr)
	}
}
