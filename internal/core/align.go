package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"effitest/internal/circuit"
	"effitest/internal/lp"
	"effitest/internal/mip"
)

// alignItem is one unresolved path inside a batch during aligned testing.
type alignItem struct {
	path     int     // circuit path id
	from, to int     // FF endpoints
	lo, hi   float64 // current bounds [l, u] on the path delay D
	lambda   float64 // hold bound λ for (from,to); -Inf when absent
	weight   float64 // §3.3 center priority
}

func (it alignItem) center() float64 { return (it.lo + it.hi) / 2 }

// assignWeights implements the paper's weighting: sort the range centers,
// give k0 to the middle of the sorted list and decrease by kd per rank step
// away from the middle (k0 ≫ kd keeps middle ranges slightly prioritized,
// resolving the non-overlapping tie of Figure 6e).
func assignWeights(items []alignItem, k0, kd float64) {
	assignWeightsInto(items, k0, kd, nil)
}

// assignWeightsInto is assignWeights over a caller-owned rank buffer, so
// the per-frequency-step hot loop reuses one allocation; it returns the
// (possibly grown) buffer for the caller to keep.
func assignWeightsInto(items []alignItem, k0, kd float64, idx []int) []int {
	idx = idx[:0]
	for i := range items {
		idx = append(idx, i)
	}
	// The comparator returns -1/+1 exactly where the less function
	// center(a) < center(b) holds either way round, so the pattern-defeating
	// quicksort behind slices.SortFunc makes sort.Slice's comparisons and
	// swaps — the same permutation, ties and NaNs included — without the
	// reflect swapper sort.Slice allocates on every frequency step.
	slices.SortFunc(idx, func(a, b int) int {
		ca, cb := items[a].center(), items[b].center()
		switch {
		case ca < cb:
			return -1
		case cb < ca:
			return 1
		}
		return 0
	})
	mid := (len(idx) - 1) / 2
	for rank, i := range idx {
		w := k0 - kd*math.Abs(float64(rank-mid))
		if w < 1 {
			w = 1
		}
		items[i].weight = w
	}
	return idx
}

// alignResult carries the per-iteration solve outcome: the clock period to
// apply and the buffer values (full per-FF vector; unbuffered FFs at 0).
type alignResult struct {
	T   float64
	X   []float64
	Obj float64
}

// alignScratch holds the heuristic solvers' reusable buffers. One lives in
// every chipScratch, so the per-frequency-step solves of a whole chip
// stream share a handful of allocations. The returned alignResult.X
// aliases the scratch and is valid until the next solve on it — exactly
// the lifetime runBatchTest needs (step the tester, update bounds, warm-
// start the next solve).
type alignScratch struct {
	x, bestX  []float64
	restart   [3][]float64
	ctr, vals []float64 // per-item centers and shifted centers, in item order
	ord       []int     // item permutation, re-sorted by (vals[i], i) per probe
	held      []int     // items whose hold bound λ is finite
	bufs      []int
	probes    int // evalBestT calls, for the probe-count tests and benchmark
}

// begin fills the per-solve item state: centers, the identity permutation
// and the hold-constrained items.
func (scr *alignScratch) begin(items []alignItem) {
	scr.ctr = resizeF(scr.ctr, len(items))
	scr.vals = resizeF(scr.vals, len(items))
	scr.ord = slices.Grow(scr.ord[:0], len(items))
	scr.held = slices.Grow(scr.held[:0], len(items))
	for i, it := range items {
		scr.ctr[i] = it.center()
		scr.ord = append(scr.ord, i)
		if !math.IsInf(it.lambda, -1) {
			scr.held = append(scr.held, i)
		}
	}
}

// resizeF returns s with length n, reusing its capacity when possible.
// Contents are unspecified.
func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// alignSolve dispatches on the configured mode. Buffered FFs not touched by
// the batch keep their previous values (vector prev, may be nil for all-
// zero). A nil scr degrades to one-shot buffers. The exact modes honour ctx
// inside their solve; the others finish in bounded time and ignore it.
func alignSolve(ctx context.Context, c *circuit.Circuit, items []alignItem, prev []float64, cfg Config, scr *alignScratch) (alignResult, error) {
	if scr == nil {
		scr = &alignScratch{}
	}
	switch cfg.AlignMode {
	case AlignOff:
		return alignOff(c, items, scr), nil
	case AlignHeuristic:
		return alignHeuristic(c, items, prev, scr), nil
	case AlignFastMILP:
		return alignMILP(ctx, c, items, false)
	case AlignPaperILP:
		return alignMILP(ctx, c, items, true)
	default:
		return alignResult{}, fmt.Errorf("core: unknown align mode %d", cfg.AlignMode)
	}
}

// weightedMedian returns the value minimizing Σ w_i|t - vals[i]| — the
// classical weighted median, w_i = items[i].weight. ord is a permutation of
// the item indices, re-sorted in place by insertion on the key
// (vals[i], i): an ord left by the previous probe is nearly sorted, so the
// sort runs in close to linear time. The key is the order a stable sort
// from item order produces, so the weight sums run in one fixed order
// whatever ord held before.
func weightedMedian(items []alignItem, vals []float64, ord []int) float64 {
	for k := 1; k < len(ord); k++ {
		i, v := ord[k], vals[ord[k]]
		j := k - 1
		for ; j >= 0 && (vals[ord[j]] > v || vals[ord[j]] == v && ord[j] > i); j-- {
			ord[j+1] = ord[j]
		}
		ord[j+1] = i
	}
	total := 0.0
	for _, i := range ord {
		total += items[i].weight
	}
	acc := 0.0
	for _, i := range ord {
		acc += items[i].weight
		if acc >= total/2 {
			return vals[i]
		}
	}
	return vals[ord[len(ord)-1]]
}

// alignOff keeps buffers at zero and picks the weighted median of centers.
func alignOff(c *circuit.Circuit, items []alignItem, scr *alignScratch) alignResult {
	scr.begin(items)
	scr.x = resizeF(scr.x, c.NumFF)
	x := scr.x
	clear(x)
	t := weightedMedian(items, scr.ctr, scr.ord)
	return alignResult{T: t, X: x, Obj: alignObjective(items, t, x)}
}

// alignObjective evaluates Σ w|T - (center + x_i - x_j)|.
func alignObjective(items []alignItem, T float64, x []float64) float64 {
	s := 0.0
	for _, it := range items {
		s += it.weight * math.Abs(T-(it.center()+x[it.from]-x[it.to]))
	}
	return s
}

// alignHeuristic is weighted-median coordinate descent over the buffer
// lattice: T is re-optimized in closed form; each touched buffer scans its
// lattice, skipping values that violate any hold bound of the batch.
//
// The scans stop early only where a certificate proves that no skipped
// probe could pass the `obj < best − 1e-12` test, so the chain of running-
// best updates — and with it T, X and Obj — is bit-identical to probing
// every lattice value. Along one coordinate x_f, with the others fixed:
//
//   - G(x_f) = min_{T≥0} Σ w_i|T − (c_i + x_from − x_to)| is convex (the
//     partial minimum of a jointly convex function), and the lattice values
//     Lo + k·step are non-decreasing in k, so once G rises between two
//     probed values it never falls again;
//   - every hold bound x_from − x_to ≥ λ is monotone in x_f, so the
//     hold-feasible values form an interval;
//   - evalBestT's rounded objective g̃ is within δ (certSlack) of G, so a
//     rise of g̃ by more than 2δ proves a rise of G, after which every
//     later value's g̃ is at least the risen one's minus 2δ.
//
// A descent coordinate that sits exactly on lattice index kc, at a
// hold-feasible point, first probes kc−1: when that probe is infeasible or
// worse than the current value by more than 2δ, nothing left of kc can win
// and the scan starts right of kc. Every scan stops at the first probe
// whose g̃ exceeds the last probed value by more than 2δ and sits 2δ above
// the running best, and (from a feasible kc) at the first infeasible probe
// right of kc. A coordinate off the lattice (a Hi restart that misses it
// by an ulp) or at a start repairHolds could not make feasible gets
// neither the left skip nor the hold stop: its scan starts at k = 0.
func alignHeuristic(c *circuit.Circuit, items []alignItem, prev []float64, scr *alignScratch) alignResult {
	scr.x = resizeF(scr.x, c.NumFF)
	x := scr.x
	if prev != nil {
		copy(x, prev) // a warm re-solve may hand back x itself; copy is a no-op then
	} else {
		clear(x)
	}
	// Collect touched buffered FFs (a batch touches at most 2×len(items),
	// so a linear membership scan beats a map).
	bufs := scr.bufs[:0]
	for _, it := range items {
		for _, f := range [2]int{it.from, it.to} {
			if c.Buf.Buffered[f] && !slices.Contains(bufs, f) {
				bufs = append(bufs, f)
			}
		}
	}
	scr.bufs = bufs
	sort.Ints(bufs)
	// Quantize any inherited values and repair hold feasibility.
	for _, f := range bufs {
		x[f] = c.Buf.Quantize(f, x[f])
	}
	repairHolds(c, items, bufs, x)

	scr.begin(items)
	ctr, vals, ord := scr.ctr, scr.vals, scr.ord
	delta2 := 2 * certSlack(c, items, ctr, x)
	// evalBestT returns the objective with T re-optimized in closed form
	// (the weighted median of the shifted centers) for the current x. The
	// shifted centers and the objective sum are alignObjective's float ops
	// in its order, so the result is bit-identical to a full re-evaluation.
	evalBestT := func() (float64, float64) {
		scr.probes++
		// Index, never range by value: a by-value range copies each
		// alignItem onto the stack once per item per probe.
		for i := range items {
			it := &items[i]
			vals[i] = ctr[i] + x[it.from] - x[it.to]
		}
		t := weightedMedian(items, vals, ord)
		if t < 0 {
			t = 0
		}
		obj := 0.0
		for i := range items {
			obj += items[i].weight * math.Abs(t-vals[i])
		}
		return t, obj
	}
	// holdViolated reports whether x violates any item's hold bound.
	holdViolated := func() bool {
		for _, i := range scr.held {
			if it := &items[i]; x[it.from]-x[it.to] < it.lambda-1e-12 {
				return true
			}
		}
		return false
	}
	// risen reports that the objective rose by more than 2δ from the last
	// probed value and sits 2δ above best, so no later lattice value of
	// this coordinate can beat best. A NaN last (nothing probed yet) never
	// certifies.
	risen := func(obj, last, best float64) bool {
		return obj-last > delta2 && obj-delta2 >= best
	}

	latticeValue := func(f, k int) float64 { return c.Buf.Lo[f] + float64(k)*c.Buf.StepSize(f) }
	steps := c.Buf.Steps
	if steps < 0 {
		steps = 0
	}
	// latticeIndex returns the k with latticeValue(f, k) == v exactly and
	// both neighbours distinct from v, or -1.
	latticeIndex := func(f int, v float64) int {
		r := math.Round((v - c.Buf.Lo[f]) / c.Buf.StepSize(f))
		if !(r >= 0 && r <= float64(steps)) {
			return -1
		}
		k := int(r)
		if latticeValue(f, k) != v || k > 0 && latticeValue(f, k-1) == v || k < steps && latticeValue(f, k+1) == v {
			return -1
		}
		return k
	}

	if len(bufs) <= 2 && steps > 0 && steps <= 64 {
		// Exhaustive lattice search: exact for one- and two-buffer batches
		// (common on circuits with few buffers).
		scr.bestX = resizeF(scr.bestX, c.NumFF)
		bestX := scr.bestX
		copy(bestX, x)
		_, best := evalBestT()
		if holdViolated() {
			best = math.Inf(1)
		}
		// row scans buffer f's lattice upward with the others fixed.
		row := func(f int) {
			last := math.NaN()
			for k := 0; k <= steps; k++ {
				x[f] = latticeValue(f, k)
				_, obj := evalBestT()
				if obj < best-1e-12 && !holdViolated() {
					best = obj
					copy(bestX, x)
				}
				if risen(obj, last, best) {
					return
				}
				last = obj
			}
		}
		switch len(bufs) {
		case 1:
			row(bufs[0])
		case 2:
			for k0 := 0; k0 <= steps; k0++ {
				x[bufs[0]] = latticeValue(bufs[0], k0)
				row(bufs[1])
			}
		}
		copy(x, bestX)
		t, obj := evalBestT()
		return alignResult{T: t, X: x, Obj: obj}
	}

	// scanCoord moves buffer f to its lattice value of lowest objective and
	// returns that objective; best is the objective at x. A value replaces
	// the running best only by beating it by 1e-12, so ties keep the
	// current value or the lowest k.
	scanCoord := func(f int, best float64) float64 {
		cur := x[f]
		bestV, bestObj := cur, best
		kc := -1 // cur's lattice index at a hold-feasible x; -1: no certificate
		if !holdViolated() {
			kc = latticeIndex(f, cur)
		}
		k, last, left := 0, math.NaN(), 0.0
		if kc > 0 {
			x[f] = latticeValue(f, kc-1)
			if holdViolated() {
				k = kc
			} else if _, left = evalBestT(); left-best > delta2 {
				k = kc
			}
		}
	scan:
		for ; k <= steps; k++ {
			v := latticeValue(f, k)
			var obj float64
			switch {
			case k == kc:
				obj = best // the current value never beats bestObj ≤ best
			case v == cur:
				continue
			case k == kc-1:
				obj = left
			default:
				x[f] = v
				if holdViolated() {
					if kc >= 0 && k > kc {
						break scan // the feasible interval around kc ended
					}
					continue
				}
				_, obj = evalBestT()
			}
			if obj < bestObj-1e-12 {
				bestObj, bestV = obj, v
			}
			if risen(obj, last, bestObj) {
				break
			}
			last = obj
		}
		x[f] = bestV
		return bestObj
	}

	// Multi-start coordinate descent for batches touching many buffers.
	descend := func() float64 {
		repairHolds(c, items, bufs, x)
		_, best := evalBestT()
		const maxPasses = 25
		for pass := 0; pass < maxPasses; pass++ {
			improved := false
			for _, f := range bufs {
				if obj := scanCoord(f, best); obj < best-1e-12 {
					best = obj
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		return best
	}

	scr.bestX = resizeF(scr.bestX, c.NumFF)
	bestX := scr.bestX
	bestObj := descend()
	copy(bestX, x)
	if prev != nil {
		// Warm-started re-solve within a batch: bounds moved only a little,
		// so a single descent from the previous optimum suffices.
		copy(x, bestX)
		t, obj := evalBestT()
		return alignResult{T: t, X: x, Obj: obj}
	}
	// Cold start: restart from all-zero (quantized) and two deterministic
	// spreads derived from the batch contents.
	restarts := scr.restart[:] // aliases scr.restart, so grown buffers persist
	for ri := range restarts {
		restarts[ri] = resizeF(restarts[ri], c.NumFF)
		rx := restarts[ri]
		clear(rx)
		for bi, f := range bufs {
			switch ri {
			case 0:
				rx[f] = c.Buf.Quantize(f, 0)
			case 1:
				// Alternate extremes by position.
				if bi%2 == 0 {
					rx[f] = c.Buf.Lo[f]
				} else {
					rx[f] = c.Buf.Hi[f]
				}
			default:
				if bi%2 == 1 {
					rx[f] = c.Buf.Lo[f]
				} else {
					rx[f] = c.Buf.Hi[f]
				}
			}
		}
	}
	for _, rx := range restarts {
		copy(x, rx)
		if obj := descend(); obj < bestObj-1e-12 {
			bestObj = obj
			copy(bestX, x)
		}
	}
	copy(x, bestX)
	t, obj := evalBestT()
	return alignResult{T: t, X: x, Obj: obj}
}

// certSlack returns δ, an a-priori bound on |g̃(x) − G(x)| at every point one
// alignHeuristic solve can visit, where g̃ is evalBestT's rounded objective
// and G(x) = min_{T≥0} Σ w_i|T − (c_i + x_from − x_to)| its exact value. x is
// the solve's start; only touched buffers move, within [Lo, Hi], and
// restarts only zero the rest. With u = 2⁻⁵³, n items, W = Σw and M bounding
// |c_i| + |x_from| + |x_to| over the items:
//
//   - each shifted centre is two roundings from exact, ≤ 2uM, which moves
//     the minimum over T by ≤ 2uMW;
//   - the weighted median compares rounded prefix sums with a rounded half
//     total, each within nuW of exact, so the chosen T (clamped at 0) has a
//     subgradient within 4nuW of zero and lies within M of the constrained
//     optimum: ≤ 4nuMW;
//   - the objective's n products and sums lose ≤ (n+1)u·Σ w|T − v_i| ≤
//     2(n+1)uMW.
//
// That totals (3n+2)·2⁻⁵²·MW. The returned 8(n+4)·2⁻⁵²·W·(M+1) more than
// doubles it, covering the second-order terms and the rounding of the
// certificate's own comparisons; the last term covers rounding in the
// subnormal range. With a negative or NaN weight G need not be convex, and
// δ = +Inf disables every objective certificate. A loose δ only costs probes.
func certSlack(c *circuit.Circuit, items []alignItem, ctr, x []float64) float64 {
	reach := func(f int) float64 {
		if c.Buf.Buffered[f] {
			return max(math.Abs(c.Buf.Lo[f]), math.Abs(c.Buf.Hi[f]))
		}
		return math.Abs(x[f])
	}
	w, m := 0.0, 0.0
	for i, it := range items {
		if !(it.weight >= 0) {
			return math.Inf(1)
		}
		w += it.weight
		m = max(m, math.Abs(ctr[i])+reach(it.from)+reach(it.to))
	}
	n := float64(len(items))
	return 8*(n+4)*0x1p-52*w*(m+1) + (n+4)*0x1p-1022
}

// repairHolds makes x hold-feasible for the batch: as long as some item's
// bound is violated, raise its source buffer or lower its sink buffer by one
// lattice step where possible.
func repairHolds(c *circuit.Circuit, items []alignItem, bufs []int, x []float64) {
	for round := 0; round < 4*len(items)+8; round++ {
		fixed := true
		for _, it := range items {
			if math.IsInf(it.lambda, -1) {
				continue
			}
			if x[it.from]-x[it.to] >= it.lambda-1e-12 {
				continue
			}
			fixed = false
			sf, st := c.Buf.StepSize(it.from), c.Buf.StepSize(it.to)
			if c.Buf.Buffered[it.from] && x[it.from]+sf <= c.Buf.Hi[it.from]+1e-12 {
				x[it.from] = c.Buf.Quantize(it.from, x[it.from]+sf)
			} else if c.Buf.Buffered[it.to] && x[it.to]-st >= c.Buf.Lo[it.to]-1e-12 {
				x[it.to] = c.Buf.Quantize(it.to, x[it.to]-st)
			}
		}
		if fixed {
			return
		}
	}
}

// alignMILP builds and solves the alignment model exactly. With paperBigM
// true it is the faithful Eqs. (7)–(14) big-M formulation (plus the implied
// z⁺+z⁻=1); otherwise the equivalent direct absolute-value model. Buffer
// values are integer lattice points in both cases. A cancelled ctx stops the
// branch and bound and returns its error.
func alignMILP(ctx context.Context, c *circuit.Circuit, items []alignItem, paperBigM bool) (alignResult, error) {
	p := mip.NewProblem()

	tMax := 0.0
	span := 0.0
	for _, it := range items {
		for _, f := range [2]int{it.from, it.to} {
			if c.Buf.Buffered[f] {
				if w := c.Buf.Hi[f] - c.Buf.Lo[f]; w > span {
					span = w
				}
			}
		}
		if it.hi > tMax {
			tMax = it.hi
		}
	}
	tMax += 2*span + 1

	tVar := p.AddVar("T", 0, tMax, 0)

	// One integer step variable per touched buffered FF.
	type bufVar struct {
		v    int
		lo   float64
		step float64
	}
	bufOf := map[int]bufVar{}
	xTerm := func(f int, sign float64) (lp.Term, float64, bool) {
		// Returns the term for x_f = lo + step·n and the constant offset
		// contributed; ok=false when the FF is unbuffered (x=0).
		if !c.Buf.Buffered[f] {
			return lp.Term{}, 0, false
		}
		bv, ok := bufOf[f]
		if !ok {
			bv = bufVar{
				v:    p.AddIntVar(fmt.Sprintf("n%d", f), 0, float64(c.Buf.Steps), 0),
				lo:   c.Buf.Lo[f],
				step: c.Buf.StepSize(f),
			}
			bufOf[f] = bv
		}
		return lp.Term{Var: bv.v, Coef: sign * bv.step}, sign * bv.lo, true
	}

	etas := make([]int, len(items))
	bigM := 4 * (tMax + span + 10)
	for i, it := range items {
		etas[i] = p.AddVar(fmt.Sprintf("eta%d", i), 0, lp.Inf, it.weight)
		c0 := it.center()

		// Build the linear expression e := T - c0 - (x_i - x_j) as terms +
		// constant: e = T - x_i + x_j - c0.
		var baseTerms []lp.Term
		baseConst := -c0
		baseTerms = append(baseTerms, lp.Term{Var: tVar, Coef: 1})
		if t, off, ok := xTerm(it.from, -1); ok {
			baseTerms = append(baseTerms, t)
			baseConst += off
		}
		if t, off, ok := xTerm(it.to, 1); ok {
			baseTerms = append(baseTerms, t)
			baseConst += off
		}

		if !paperBigM {
			// η ≥ e  and  η ≥ -e.
			t1 := append([]lp.Term{{Var: etas[i], Coef: 1}}, negateTerms(baseTerms)...)
			p.AddConstraint("absP", t1, lp.GE, baseConst)
			t2 := append([]lp.Term{{Var: etas[i], Coef: 1}}, baseTerms...)
			p.AddConstraint("absN", t2, lp.GE, -baseConst)
		} else {
			zp := p.AddBinVar(fmt.Sprintf("zp%d", i), 0)
			zn := p.AddBinVar(fmt.Sprintf("zn%d", i), 0)
			// (8)  e ≤ M z⁺
			p.AddConstraint("eq8", append(cloneTerms(baseTerms), lp.Term{Var: zp, Coef: -bigM}), lp.LE, -baseConst)
			// (9)  e - η ≤ M(1-z⁺)
			p.AddConstraint("eq9", append(cloneTerms(baseTerms),
				lp.Term{Var: etas[i], Coef: -1}, lp.Term{Var: zp, Coef: bigM}), lp.LE, -baseConst+bigM)
			// (10) -e + η ≤ M(1-z⁺)
			p.AddConstraint("eq10", append(negateTerms(baseTerms),
				lp.Term{Var: etas[i], Coef: 1}, lp.Term{Var: zp, Coef: bigM}), lp.LE, baseConst+bigM)
			// (11) -e ≤ M z⁻
			p.AddConstraint("eq11", append(negateTerms(baseTerms), lp.Term{Var: zn, Coef: -bigM}), lp.LE, baseConst)
			// (12) -e - η ≤ M(1-z⁻)
			p.AddConstraint("eq12", append(negateTerms(baseTerms),
				lp.Term{Var: etas[i], Coef: -1}, lp.Term{Var: zn, Coef: bigM}), lp.LE, baseConst+bigM)
			// (13) e + η ≤ M(1-z⁻)
			p.AddConstraint("eq13", append(cloneTerms(baseTerms),
				lp.Term{Var: etas[i], Coef: 1}, lp.Term{Var: zn, Coef: bigM}), lp.LE, -baseConst+bigM)
			// Implied case selection: exactly one side active.
			p.AddConstraint("zsum", []lp.Term{{Var: zp, Coef: 1}, {Var: zn, Coef: 1}}, lp.EQ, 1)
		}

		// Hold bound (21): x_i - x_j ≥ λ.
		if !math.IsInf(it.lambda, -1) {
			var ht []lp.Term
			hc := it.lambda
			if t, off, ok := xTerm(it.from, 1); ok {
				ht = append(ht, t)
				hc -= off
			}
			if t, off, ok := xTerm(it.to, -1); ok {
				ht = append(ht, t)
				hc -= off
			}
			if len(ht) > 0 {
				p.AddConstraint("hold", ht, lp.GE, hc)
			} else if hc > 0 {
				return alignResult{}, fmt.Errorf("core: hold bound %v unsatisfiable without buffers", it.lambda)
			}
		}
	}

	sol, err := p.Solve(ctx)
	if err != nil {
		return alignResult{}, err
	}
	if sol.Status != lp.StatusOptimal {
		return alignResult{}, fmt.Errorf("core: alignment MILP %v", sol.Status)
	}
	x := make([]float64, c.NumFF)
	for f, bv := range bufOf {
		x[f] = bv.lo + bv.step*math.Round(sol.X[bv.v])
	}
	t := sol.X[tVar]
	return alignResult{T: t, X: x, Obj: alignObjective(items, t, x)}, nil
}

func cloneTerms(ts []lp.Term) []lp.Term {
	out := make([]lp.Term, len(ts))
	copy(out, ts)
	return out
}

func negateTerms(ts []lp.Term) []lp.Term {
	out := make([]lp.Term, len(ts))
	for i, t := range ts {
		out[i] = lp.Term{Var: t.Var, Coef: -t.Coef}
	}
	return out
}
