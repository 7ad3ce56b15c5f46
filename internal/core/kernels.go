package core

// This file holds the plan-time prediction kernels: the conditional
// structure of §3.2/§3.4 — which tested paths condition which untested
// paths, per correlation group — is fixed the moment the Plan's tested set
// is final, so Prepare (and Bind, when a plan is restored from an artifact)
// prefactorizes it once. Per chip, conditional prediction then reduces to
// one triangular solve + matrix-vector product per group over a pooled
// scratch workspace: no maps, no matrix allocation, no re-factorization,
// and results bit-identical to the naive groupMVN+Conditional oracle
// (pinned by the differential tests).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
			if need := len(gk.known) + len(gk.unknown) + gk.pred.ScratchLen(); need > ks.scratchLen {
				ks.scratchLen = need
			}
			ks.predGroups++
			ks.predPaths += len(gk.unknown)
		}
		ks.groups = append(ks.groups, *gk)
	}
	return ks, nil
}

// predictOne applies one baked group predictor to a single chip's bounds:
// gather the measured upper bounds, one triangular solve + matvec (Eq. 4),
// scatter the μ′ ± 3σ′ windows back. Allocation-free once ws is warm.
func (gk *groupKernel) predictOne(b *Bounds, ws *la.Workspace) {
	ws.Reset()
	obs := ws.Take(len(gk.known))
	for j, k := range gk.known {
		obs[j] = b.Hi[k] // conservative: measured upper bounds
	}
	mu := ws.Take(len(gk.unknown))
	gk.pred.MuTo(mu, obs, ws)
	for j, p := range gk.unknown {
		sigma := gk.sigma[j]
		m := mu[j]
		lo := m - 3*sigma
		if lo < 0 {
			lo = 0
		}
		b.Lo[p] = lo
		b.Hi[p] = m + 3*sigma
	}
}

// predictMulti applies one baked group predictor to K chips at once through
// the TRSM-shaped multi-RHS kernels: the group's Cholesky factor and
// cross-covariance stream through the cache once per batch instead of once
// per chip. Column j of the observation block is chip j's measurements, so
// each chip's result is bit-identical to predictOne (the multi kernels are
// column-wise identical to the vector kernels). A single chip takes the
// vector path — batching buys nothing there and the strided gather would
// only cost.
func (gk *groupKernel) predictMulti(bs []*Bounds, ws *la.Workspace) {
	if len(bs) == 1 {
		gk.predictOne(bs[0], ws)
		return
	}
	ws.Reset()
	obs := ws.TakeMatrix(len(gk.known), len(bs))
	for i, k := range gk.known {
		row := obs.RowView(i)
		for j, b := range bs {
			row[j] = b.Hi[k] // conservative: measured upper bounds
		}
	}
	mu := ws.TakeMatrix(len(gk.unknown), len(bs))
	gk.pred.MuBatchTo(&mu, &obs, ws)
	for i, p := range gk.unknown {
		sigma := gk.sigma[i]
		row := mu.RowView(i)
		for j, b := range bs {
			m := row[j]
			lo := m - 3*sigma
			if lo < 0 {
				lo = 0
			}
			b.Lo[p] = lo
			b.Hi[p] = m + 3*sigma
		}
	}
}

// predictInto runs §3.4 prediction for a batch of chips' bounds: every
// baked group predictor, applied to all chips at once, writes the μ′ ± 3σ′
// windows back. Groups without a measured path keep their prior ±3σ
// windows. Allocation-free once ws is warm (Require(scratchLen) for one
// chip; the first batch grows it to the batch's high-water mark).
func (ks *predictKernels) predictInto(bs []*Bounds, ws *la.Workspace) {
	if len(bs) == 0 {
		return
	}
	for i := range ks.groups {
		gk := &ks.groups[i]
		if gk.pred == nil {
			continue
		}
		gk.predictMulti(bs, ws)
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

// installKernels sets up the plan's kernel holder — holding ks, or empty
// to bake on first use when ks is nil — and its per-worker scratch pool.
func (pl *Plan) installKernels(ks *predictKernels) {
	pl.kernels = &lazyKernels{}
	if ks != nil {
		pl.kernels.ks.Store(ks)
	}
	pl.scratch = &sync.Pool{New: func() any { return pl.newChipScratch() }}
}

// lazyKernels defers bakePredictKernels to the first chip that needs it.
// Baking is the expensive tail of a warm plan-cache load — one ridged
// Cholesky per group — and a process that loads a plan only to inspect or
// re-serve it should not pay it, so Bind installs an empty holder instead
// of baking eagerly; Prepare stores its eager bake in the same holder. The
// state is held behind a pointer shared by every shallow copy of the plan
// (resolvePlan copies Plan by value), so the bake happens once no matter
// which copy runs the first chip.
type lazyKernels struct {
	mu  sync.Mutex
	ks  atomic.Pointer[predictKernels]
	err error // sticky bake failure (never a caller's context error)
}

// errNoKernels is returned for a plan built by neither Prepare nor Bind (a
// hand-assembled literal): it has no kernel holder to predict with.
var errNoKernels = errors.New("core: plan has no prediction kernels (build it with Prepare or Bind)")

// predictorKernels resolves the plan's baked kernels, baking them on first
// use for lazily-bound plans. A bake failure is sticky and returned to
// every subsequent chip; a context cancellation during the bake is returned
// to that caller only, leaving the plan bakeable.
func (pl *Plan) predictorKernels(ctx context.Context) (*predictKernels, error) {
	lz := pl.kernels
	if lz == nil {
		return nil, errNoKernels
	}
	if ks := lz.ks.Load(); ks != nil {
		return ks, nil
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if ks := lz.ks.Load(); ks != nil {
		return ks, nil
	}
	if lz.err != nil {
		return nil, lz.err
	}
	ks, err := bakePredictKernels(ctx, pl.Circuit, pl.Groups, pl.Tested, pl.Cfg.Workers)
	if err != nil {
		if ctx.Err() == nil {
			lz.err = err
		}
		return nil, err
	}
	lz.ks.Store(ks)
	return ks, nil
}

// bakedKernels returns the kernels if they exist right now — eagerly or
// already lazily baked — without triggering a bake.
func (pl *Plan) bakedKernels() *predictKernels {
	if pl.kernels == nil {
		return nil
	}
	return pl.kernels.ks.Load()
}

// PredictorSigmas returns the baked conditional σ′ per path for the plan's
// tested set (baking lazily-bound plans on demand), or nil when the plan
// has no kernels at all (a hand-assembled literal or a kernel bake
// failure). The differential tests pin it bitwise against an independent
// MVN.Conditional oracle.
func (pl *Plan) PredictorSigmas() []float64 {
	ks, err := pl.predictorKernels(context.Background())
	if err != nil {
		return nil
	}
	return ks.predictSigmas(pl.Circuit.NumPaths())
}

// chipScratch is the reusable per-worker state of the online flow: the
// numeric workspace of the prediction kernels plus the alignment buffers
// runBatchTest refills on every frequency step.
type chipScratch struct {
	ws     la.Workspace
	res    []ChipResult // runChipBatch's result buffer
	bs     []*Bounds    // runChipBatch's per-chip measured bounds
	bounds []*Bounds    // gather buffer for the batched prediction phase
	items  []alignItem
	order  []int // assignWeights rank buffer
	active []int
	al     alignScratch
}

// newChipScratch sizes a scratch for this plan: the kernel workspace at its
// baked high-water mark and the alignment buffers at the largest batch.
func (pl *Plan) newChipScratch() *chipScratch {
	scr := &chipScratch{}
	if ks := pl.bakedKernels(); ks != nil {
		scr.ws.Require(ks.scratchLen)
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
