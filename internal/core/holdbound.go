package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"effitest/internal/circuit"
	"effitest/internal/lp"
	"effitest/internal/mip"
	"effitest/internal/rng"
	"effitest/internal/tester"
)

// HoldBounds carries the per-FF-pair lower bounds λij on x_i - x_j that keep
// the hold-time yield at the configured level (§3.5). A pair absent from the
// map is unconstrained.
type HoldBounds struct {
	ByPair map[[2]int]float64
}

// Lambda returns the bound for (from, to) or -Inf.
func (h *HoldBounds) Lambda(from, to int) float64 {
	if h == nil {
		return math.Inf(-1)
	}
	if v, ok := h.ByPair[[2]int{from, to}]; ok {
		return v
	}
	return math.Inf(-1)
}

// ComputeHoldBounds samples the short-path hold quantities d_ij = h_j - d_ij
// M times (Eq. 19) and chooses λij as small as possible while at least
// Y·M samples remain fully covered (Eq. 20): a sample is covered when
// λij ≥ d_ij,k for every pair. The greedy implementation drops the
// ⌊(1-Y)M⌋ samples whose removal shrinks Σλ most; an exact MILP variant is
// available for cross-checks (ComputeHoldBoundsExact).
func ComputeHoldBounds(c *circuit.Circuit, cfg Config) (*HoldBounds, error) {
	return computeHoldBounds(context.Background(), c, cfg)
}

// computeHoldBounds is ComputeHoldBounds with cancellation (PrepareCtx's
// hold stage): the context is checked between sample blocks.
func computeHoldBounds(ctx context.Context, c *circuit.Circuit, cfg Config) (*HoldBounds, error) {
	pairs, samples, err := sampleHoldQuantities(ctx, c, cfg)
	if err != nil {
		return nil, err
	}
	m := cfg.HoldSamples
	drop := int(math.Floor((1 - cfg.HoldYield) * float64(m)))
	dropped := make([]bool, m)
	for d := 0; d < drop; d++ {
		best, bestGain := -1, 0.0
		// Gain of dropping sample k = Σ over pairs where k attains the
		// current unique max of (max - second max).
		gain := make([]float64, m)
		for pi := range pairs {
			mx, second, mxk := pairTop2(samples, pi, dropped)
			if mxk >= 0 {
				gain[mxk] += mx - second
			}
		}
		for k := 0; k < m; k++ {
			if !dropped[k] && gain[k] > bestGain {
				best, bestGain = k, gain[k]
			}
		}
		if best < 0 {
			break // nothing to gain
		}
		dropped[best] = true
	}
	hb := &HoldBounds{ByPair: make(map[[2]int]float64, len(pairs))}
	for pi, pair := range pairs {
		mx := math.Inf(-1)
		for k := 0; k < m; k++ {
			if !dropped[k] && samples[pi][k] > mx {
				mx = samples[pi][k]
			}
		}
		hb.ByPair[pair] = mx
	}
	return hb, nil
}

// sampleHoldQuantities validates the §3.5 sampling parameters and returns
// the unique (from,to) pairs and, per pair, M samples of d_ij = h - min-delay
// (max over parallel short paths of the pair, since each must satisfy the
// bound). The M chips are drawn in sampler blocks across cfg.Workers; each
// block writes only its own sample columns, so the samples are identical at
// any worker count.
func sampleHoldQuantities(ctx context.Context, c *circuit.Circuit, cfg Config) ([][2]int, [][]float64, error) {
	m := cfg.HoldSamples
	if m <= 0 {
		return nil, nil, fmt.Errorf("core: HoldSamples must be positive, got %d", m)
	}
	if !(cfg.HoldYield > 0 && cfg.HoldYield <= 1) {
		return nil, nil, fmt.Errorf("core: HoldYield %v out of (0,1]", cfg.HoldYield)
	}
	pairIdx := map[[2]int]int{}
	var pairs [][2]int
	pairOf := make([]int, len(c.Paths))
	for i := range c.Paths {
		key := [2]int{c.Paths[i].From, c.Paths[i].To}
		pi, ok := pairIdx[key]
		if !ok {
			pi = len(pairs)
			pairIdx[key] = pi
			pairs = append(pairs, key)
		}
		pairOf[i] = pi
	}
	samples := make([][]float64, len(pairs))
	for i := range samples {
		samples[i] = make([]float64, m)
		for k := range samples[i] {
			samples[i][k] = math.Inf(-1)
		}
	}
	holdSeed := rng.Seed(cfg.Seed, "holdsamples", c.Name)
	err := tester.ForEachBlock(ctx, c, holdSeed, 0, m, cfg.Workers, true, func(s *tester.Sampler, start, count int) {
		for w := range count {
			k := start + w
			for i, pi := range pairOf {
				if d := c.HoldTime - s.Min[w][i]; d > samples[pi][k] {
					samples[pi][k] = d
				}
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return pairs, samples, nil
}

// pairTop2 returns the max, second max and the index of the (unique) max
// among non-dropped samples of pair pi; mxk is -1 when the max is attained
// by more than one sample (dropping one then gains nothing).
func pairTop2(samples [][]float64, pi int, dropped []bool) (mx, second float64, mxk int) {
	mx, second, mxk = math.Inf(-1), math.Inf(-1), -1
	count := 0
	for k, v := range samples[pi] {
		if dropped[k] {
			continue
		}
		switch {
		case v > mx:
			second = mx
			mx, mxk, count = v, k, 1
		case v == mx:
			count++
		case v > second:
			second = v
		}
	}
	if count > 1 || math.IsInf(second, -1) {
		mxk = -1
	}
	return mx, second, mxk
}

// ComputeHoldBoundsExact solves Eqs. (19)–(20) as a literal MILP (binary
// coverage variable per sample, big-M activation). Exponential in the worst
// case — use only for small M in tests and ablations.
func ComputeHoldBoundsExact(c *circuit.Circuit, cfg Config) (*HoldBounds, error) {
	pairs, samples, err := sampleHoldQuantities(context.Background(), c, cfg)
	if err != nil {
		return nil, err
	}
	m := cfg.HoldSamples

	prob := mip.NewProblem()
	lam := make([]int, len(pairs))
	lo := make([]float64, len(pairs))
	for pi := range pairs {
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, v := range samples[pi] {
			mn = math.Min(mn, v)
			mx = math.Max(mx, v)
		}
		lo[pi] = mn
		lam[pi] = prob.AddVar(fmt.Sprintf("lam%d", pi), mn, mx, 1)
	}
	ys := make([]int, m)
	bigM := 0.0
	for pi := range pairs {
		for _, v := range samples[pi] {
			bigM = math.Max(bigM, v-lo[pi])
		}
	}
	bigM += 1
	for k := 0; k < m; k++ {
		ys[k] = prob.AddBinVar(fmt.Sprintf("y%d", k), 0)
		for pi := range pairs {
			// λ_pi ≥ d_pi,k - M(1-y_k)
			prob.AddConstraint("cover",
				[]lp.Term{{Var: lam[pi], Coef: 1}, {Var: ys[k], Coef: -bigM}},
				lp.GE, samples[pi][k]-bigM)
		}
	}
	terms := make([]lp.Term, m)
	for k := range ys {
		terms[k] = lp.Term{Var: ys[k], Coef: 1}
	}
	prob.AddConstraint("yield", terms, lp.GE, math.Ceil(cfg.HoldYield*float64(m)))
	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("core: hold-bound MILP %v", sol.Status)
	}
	hb := &HoldBounds{ByPair: make(map[[2]int]float64, len(pairs))}
	for pi, pair := range pairs {
		hb.ByPair[pair] = sol.X[lam[pi]]
	}
	return hb, nil
}

// HoldYieldEstimate replays the sampled hold quantities against bounds and
// returns the fraction of samples fully covered — a direct check of
// Eq. (20).
func HoldYieldEstimate(c *circuit.Circuit, hb *HoldBounds, cfg Config) (float64, error) {
	pairs, samples, err := sampleHoldQuantities(context.Background(), c, cfg)
	if err != nil {
		return 0, err
	}
	covered := 0
	for k := 0; k < cfg.HoldSamples; k++ {
		ok := true
		for pi, pair := range pairs {
			if samples[pi][k] > hb.Lambda(pair[0], pair[1])+1e-12 {
				ok = false
				break
			}
		}
		if ok {
			covered++
		}
	}
	return float64(covered) / float64(cfg.HoldSamples), nil
}

// SumLambda returns Σλ (the §3.5 objective) for reporting and ablations.
func (h *HoldBounds) SumLambda() float64 {
	keys := make([][2]int, 0, len(h.ByPair))
	for k := range h.ByPair {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	s := 0.0
	for _, k := range keys {
		s += h.ByPair[k]
	}
	return s
}
