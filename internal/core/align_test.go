package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/rng"
)

func TestAssignWeightsMiddleHighest(t *testing.T) {
	items := []alignItem{
		{lo: 0, hi: 2},  // center 1
		{lo: 4, hi: 6},  // center 5
		{lo: 8, hi: 10}, // center 9
	}
	assignWeights(items, 1000, 1)
	if items[1].weight != 1000 {
		t.Fatalf("middle weight %v, want 1000", items[1].weight)
	}
	if items[0].weight != 999 || items[2].weight != 999 {
		t.Fatalf("outer weights %v %v, want 999", items[0].weight, items[2].weight)
	}
}

// assignWeightsSortSlice is assignWeightsInto as it stood with sort.Slice:
// the oracle for the rank order and weights.
func assignWeightsSortSlice(items []alignItem, k0, kd float64) []int {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return items[idx[a]].center() < items[idx[b]].center() })
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

// TestAssignWeightsMatchesSortSlice pins assignWeightsInto's ranks and
// weights to sort.Slice's on random batches of up to 40 items with many
// tied centers and the odd NaN, reusing one rank buffer throughout.
func TestAssignWeightsMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var idx []int
	for trial := 0; trial < 20000; trial++ {
		n := r.Intn(41)
		levels := 1 + r.Intn(8) // few distinct centers: many ties
		items := make([]alignItem, n)
		for i := range items {
			c := float64(r.Intn(levels))
			if r.Intn(50) == 0 {
				c = math.NaN()
			}
			items[i] = alignItem{lo: c - 0.5, hi: c + 0.5}
		}
		want := slices.Clone(items)
		wantIdx := assignWeightsSortSlice(want, 1000, 7)
		idx = assignWeightsInto(items, 1000, 7, idx)
		if !slices.Equal(idx, wantIdx) {
			t.Fatalf("trial %d: ranks %v, sort.Slice %v", trial, idx, wantIdx)
		}
		for i := range items {
			if math.Float64bits(items[i].weight) != math.Float64bits(want[i].weight) {
				t.Fatalf("trial %d: item %d weight %v, sort.Slice %v", trial, i, items[i].weight, want[i].weight)
			}
		}
	}
}

func TestWeightedMedian(t *testing.T) {
	median := func(vals, weights []float64, ord []int) float64 {
		items := make([]alignItem, len(weights))
		for i, w := range weights {
			items[i].weight = w
		}
		return weightedMedian(items, vals, ord)
	}
	if v := median([]float64{1, 5, 9}, []float64{1, 1, 1}, []int{0, 1, 2}); v != 5 {
		t.Fatalf("median = %v", v)
	}
	// Heavy weight pulls the median.
	if v := median([]float64{1, 5, 9}, []float64{10, 1, 1}, []int{0, 1, 2}); v != 1 {
		t.Fatalf("weighted median = %v", v)
	}
	// Any starting permutation ends in (value, index) order: ties by index.
	vals := []float64{5, 1, 5, 9, 1}
	ord := []int{4, 3, 2, 1, 0}
	if v := median(vals, []float64{1, 1, 1, 1, 1}, ord); v != 5 {
		t.Fatalf("median from reversed order = %v", v)
	}
	if want := []int{1, 4, 0, 2, 3}; !slices.Equal(ord, want) {
		t.Fatalf("ord = %v, want %v", ord, want)
	}
}

// oracleWeightedMedian is the weighted median over a stable sort of the
// (value, weight) pairs from item order, at every size.
func oracleWeightedMedian(vals, weights []float64) float64 {
	idx := rangeInts(len(vals))
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	total := 0.0
	for _, i := range idx {
		total += weights[i]
	}
	acc := 0.0
	for _, i := range idx {
		acc += weights[i]
		if acc >= total/2 {
			return vals[i]
		}
	}
	return vals[idx[len(idx)-1]]
}

// oracleAlignHeuristic is alignHeuristic's search without its shortcuts:
// every coordinate scan probes every lattice value, and every probe
// rebuilds the shifted centers from the items, re-sorts them with their
// weights from item order, re-derives the objective through
// alignObjective and scans every item for hold violations, on fresh
// buffers.
func oracleAlignHeuristic(c *circuit.Circuit, items []alignItem, prev []float64) alignResult {
	x := make([]float64, c.NumFF)
	if prev != nil {
		copy(x, prev)
	}
	bufs := touchedBufs(c, items)
	sort.Ints(bufs)
	for _, f := range bufs {
		x[f] = c.Buf.Quantize(f, x[f])
	}
	repairHolds(c, items, bufs, x)

	evalBestT := func() (float64, float64) {
		vals := make([]float64, len(items))
		ws := make([]float64, len(items))
		for i, it := range items {
			vals[i] = it.center() + x[it.from] - x[it.to]
			ws[i] = it.weight
		}
		t := oracleWeightedMedian(vals, ws)
		if t < 0 {
			t = 0
		}
		return t, alignObjective(items, t, x)
	}
	holdViolated := func() bool {
		for _, it := range items {
			if !math.IsInf(it.lambda, -1) && x[it.from]-x[it.to] < it.lambda-1e-12 {
				return true
			}
		}
		return false
	}
	latticeValue := func(f, k int) float64 { return c.Buf.Lo[f] + float64(k)*c.Buf.StepSize(f) }
	steps := max(c.Buf.Steps, 0)

	if len(bufs) <= 2 && steps > 0 && steps <= 64 {
		bestX := slices.Clone(x)
		_, best := evalBestT()
		if holdViolated() {
			best = math.Inf(1)
		}
		scan := func() {
			if _, obj := evalBestT(); obj < best-1e-12 && !holdViolated() {
				best = obj
				copy(bestX, x)
			}
		}
		switch len(bufs) {
		case 1:
			for k := 0; k <= steps; k++ {
				x[bufs[0]] = latticeValue(bufs[0], k)
				scan()
			}
		case 2:
			for k0 := 0; k0 <= steps; k0++ {
				x[bufs[0]] = latticeValue(bufs[0], k0)
				for k1 := 0; k1 <= steps; k1++ {
					x[bufs[1]] = latticeValue(bufs[1], k1)
					scan()
				}
			}
		}
		copy(x, bestX)
		t, obj := evalBestT()
		return alignResult{T: t, X: x, Obj: obj}
	}

	descend := func() float64 {
		repairHolds(c, items, bufs, x)
		_, best := evalBestT()
		for pass := 0; pass < 25; pass++ {
			improved := false
			for _, f := range bufs {
				cur := x[f]
				bestV, bestObj := cur, best
				for k := 0; k <= steps; k++ {
					v := latticeValue(f, k)
					if v == cur {
						continue
					}
					x[f] = v
					if holdViolated() {
						continue
					}
					if _, obj := evalBestT(); obj < bestObj-1e-12 {
						bestObj, bestV = obj, v
					}
				}
				x[f] = bestV
				if bestObj < best-1e-12 {
					best = bestObj
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		return best
	}
	bestObj := descend()
	bestX := slices.Clone(x)
	if prev == nil {
		for ri := 0; ri < 3; ri++ {
			// Restarts: all-zero, then extremes alternating by position
			// in both phases.
			clear(x)
			for bi, f := range bufs {
				switch {
				case ri == 0:
					x[f] = c.Buf.Quantize(f, 0)
				case (bi%2 == 0) == (ri == 1):
					x[f] = c.Buf.Lo[f]
				default:
					x[f] = c.Buf.Hi[f]
				}
			}
			if obj := descend(); obj < bestObj-1e-12 {
				bestObj = obj
				copy(bestX, x)
			}
		}
	}
	copy(x, bestX)
	t, obj := evalBestT()
	return alignResult{T: t, X: x, Obj: obj}
}

// touchedBufs lists the buffered FFs the items touch, in first-touch order.
func touchedBufs(c *circuit.Circuit, items []alignItem) []int {
	var bufs []int
	for _, it := range items {
		for _, f := range [2]int{it.from, it.to} {
			if c.Buf.Buffered[f] && !slices.Contains(bufs, f) {
				bufs = append(bufs, f)
			}
		}
	}
	return bufs
}

// requireSameAlign fails unless got equals the oracle's want bit for bit.
func requireSameAlign(t testing.TB, what string, got, want alignResult) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.T, want.T) || !same(got.Obj, want.Obj) {
		t.Fatalf("%s: T %v vs oracle %v, Obj %v vs oracle %v", what, got.T, want.T, got.Obj, want.Obj)
	}
	for f := range want.X {
		if !same(got.X[f], want.X[f]) {
			t.Fatalf("%s: X[%d] %v vs oracle %v", what, f, got.X[f], want.X[f])
		}
	}
}

// checkAlignOracle runs the three solves a batch sees against the oracle:
// cold; warm after the windows shrink, handing back the scratch-aliased X
// as runBatchTest does; and warm from an off-lattice vector. k re-weights
// the shrunk items.
func checkAlignOracle(t testing.TB, what string, c *circuit.Circuit, items []alignItem, k [2]float64, r *rand.Rand, scr *alignScratch) {
	t.Helper()
	cold := alignHeuristic(c, items, nil, scr)
	requireSameAlign(t, what+", cold", cold, oracleAlignHeuristic(c, items, nil))

	prev := slices.Clone(cold.X)
	for i := range items {
		items[i].lo += 0.25 * (items[i].hi - items[i].lo) * r.Float64()
	}
	assignWeights(items, k[0], k[1])
	requireSameAlign(t, what+", warm", alignHeuristic(c, items, cold.X, scr), oracleAlignHeuristic(c, items, prev))

	for f := range prev {
		if c.Buf.Buffered[f] {
			prev[f] = c.Buf.Lo[f] + (c.Buf.Hi[f]-c.Buf.Lo[f])*r.Float64()
		}
	}
	requireSameAlign(t, what+", off-lattice prev", alignHeuristic(c, items, prev, scr), oracleAlignHeuristic(c, items, prev))
}

// TestAlignHeuristicMatchesOracle pins the incremental evaluator and the
// certified early exits bitwise to the full-scan, full-resort oracle on
// random batches: sizes 1–40, exact-tie centers and duplicated items, hold
// bounds, cold solves, warm re-solves from the previous result and from
// off-lattice vectors, and integer, non-integer and plateau-making weights
// ({5,5} and {1,1} give most items weight 1). One scratch serves every
// solve, so stale state from a larger batch would show. -short runs 240
// batches, the full run 9,600.
func TestAlignHeuristicMatchesOracle(t *testing.T) {
	six, err := tinyCircuitErr(24, 200, 6, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*circuit.Circuit{tinyCircuit(t, 1), tinyCircuit(t, 8), six}
	weights := [][2]float64{{1000, 1}, {7.3, 0.37}, {1000.5, 0.1}, {5, 5}, {1, 1}, {3, 1}}
	trials := 80
	if testing.Short() {
		trials = 2
	}
	r := rng.New(11, "alignoracle")
	var scr alignScratch

	descents, holds := 0, 0
	for ci, c := range circuits {
		for n := 1; n <= 40; n++ {
			for trial := 0; trial < trials; trial++ {
				what := fmt.Sprintf("circuit %d, %d items, trial %d", ci, n, trial)
				items := randomAlignItems(c, n, r)
				k := weights[(n+trial)%len(weights)]
				assignWeights(items, k[0], k[1])
				for _, it := range items {
					if !math.IsInf(it.lambda, -1) {
						holds++
					}
				}
				if len(touchedBufs(c, items)) > 2 {
					descents++
				}
				checkAlignOracle(t, what, c, items, k, r, &scr)

				centers := make([]float64, n)
				ws := make([]float64, n)
				for i, it := range items {
					centers[i], ws[i] = it.center(), it.weight
				}
				tOff := oracleWeightedMedian(centers, ws)
				requireSameAlign(t, what+", off", alignOff(c, items, &scr),
					alignResult{T: tOff, X: make([]float64, c.NumFF), Obj: alignObjective(items, tOff, make([]float64, c.NumFF))})
			}
		}
	}
	if descents == 0 || holds == 0 {
		t.Fatalf("coverage: %d coordinate-descent batches, %d hold-bounded items", descents, holds)
	}
}

// TestAlignHeuristicOracleEdgeCases pins the three places the early exits
// must fall back or lean on the hold interval against the oracle: Hi
// restarts that miss the lattice by an ulp, starts repairHolds cannot make
// feasible, and hold bounds pinning a buffer to one lattice value.
func TestAlignHeuristicOracleEdgeCases(t *testing.T) {
	r := rng.New(12, "alignedges")
	var scr alignScratch
	k := [2]float64{1000, 1}
	const batches = 40
	circ := func() *circuit.Circuit {
		c, err := tinyCircuitErr(24, 200, 6, 30, 3)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// descentItems draws a batch touching at least three buffers, so the
	// cold solve runs the restarts.
	descentItems := func(c *circuit.Circuit) []alignItem {
		for {
			if items := randomAlignItems(c, 8+r.Intn(16), r); len(touchedBufs(c, items)) > 2 {
				return items
			}
		}
	}

	offLat := circ()
	offLatticeHi(offLat)
	for b := 0; b < batches; b++ {
		items := descentItems(offLat)
		assignWeights(items, k[0], k[1])
		checkAlignOracle(t, fmt.Sprintf("off-lattice Hi, batch %d", b), offLat, items, k, r, &scr)
	}

	c := circ()
	span := c.Buf.Hi[c.Buffered[0]] - c.Buf.Lo[c.Buffered[0]]
	for b := 0; b < batches; b++ {
		items := randomAlignItems(c, 2+r.Intn(20), r)
		i := r.Intn(len(items))
		items[i].from = c.Buffered[r.Intn(len(c.Buffered))]
		items[i].lambda = 3 * span // beyond any buffer setting
		assignWeights(items, k[0], k[1])
		checkAlignOracle(t, fmt.Sprintf("infeasible start, batch %d", b), c, items, k, r, &scr)
	}

	var free []int // unbuffered FFs: x stays 0 there
	for ff := 0; ff < c.NumFF; ff++ {
		if !c.Buf.Buffered[ff] {
			free = append(free, ff)
		}
	}
	for b := 0; b < batches; b++ {
		items := randomAlignItems(c, 2+r.Intn(20), r)
		for i := range items {
			items[i].lambda = math.Inf(-1) // no bound may contradict the pin
		}
		f, g := c.Buffered[r.Intn(len(c.Buffered))], free[r.Intn(len(free))]
		v := c.Buf.Lo[f] + float64(r.Intn(c.Buf.Steps+1))*c.Buf.StepSize(f)
		src := items[r.Intn(len(items))]
		// v ≤ x_f − 0 and 0 − x_f ≥ −v pin x_f to v.
		items = append(items,
			alignItem{path: src.path, from: f, to: g, lo: src.lo, hi: src.hi, lambda: v},
			alignItem{path: src.path, from: g, to: f, lo: src.lo, hi: src.hi, lambda: -v})
		assignWeights(items, k[0], k[1])
		res := alignHeuristic(c, items, nil, &scr)
		if res.X[f] != v {
			t.Fatalf("pinned batch %d: x[%d] = %v, want %v", b, f, res.X[f], v)
		}
		checkAlignOracle(t, fmt.Sprintf("pinned buffer, batch %d", b), c, items, k, r, &scr)
	}
}

// TestAlignWarmResolveProbes pins the early exits' saving: a warm re-solve
// started from its own optimum makes one pass that probes at most the two
// lattice neighbours of each touched buffer — against all 20 other values
// without the certificates — plus the start and final evaluations.
func TestAlignWarmResolveProbes(t *testing.T) {
	c, err := tinyCircuitErr(24, 200, 6, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	var scr alignScratch
	checked := 0
	for _, b := range FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig()) {
		items := batchItems(c, b, nil)
		nb := len(touchedBufs(c, items))
		if nb <= 2 {
			continue
		}
		assignWeights(items, 1000, 1)
		opt := slices.Clone(alignHeuristic(c, items, nil, &scr).X)
		scr.probes = 0
		alignHeuristic(c, items, opt, &scr)
		if lattice := scr.probes - 2; lattice > 2*nb {
			t.Fatalf("batch %v: warm re-solve from its optimum probed %d lattice values over %d buffers, want ≤ %d",
				b, lattice, nb, 2*nb)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no batch touches more than two buffers")
	}
}

// TestCertSlackBoundsRounding checks certSlack's δ against the exact
// objective: at random lattice points of random batches, the rounded
// objective (the oracle's, bit-identical to evalBestT) is within δ of
// G = min_{T≥0} Σ w|T − (c + x_from − x_to)| evaluated in 512-bit floats.
func TestCertSlackBoundsRounding(t *testing.T) {
	c, err := tinyCircuitErr(24, 200, 6, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(14, "certslack")
	bf := func(v float64) *big.Float { return new(big.Float).SetPrec(512).SetFloat64(v) }
	x := make([]float64, c.NumFF)
	for trial := 0; trial < 400; trial++ {
		items := randomAlignItems(c, 1+r.Intn(40), r)
		assignWeights(items, []float64{1000, 7.3, 1}[trial%3], []float64{1, 0.37, 1}[trial%3])
		for _, f := range c.Buffered {
			x[f] = c.Buf.Lo[f] + float64(r.Intn(c.Buf.Steps+1))*c.Buf.StepSize(f)
		}
		ctr := make([]float64, len(items))
		vals := make([]float64, len(items))
		ws := make([]float64, len(items))
		exact := make([]*big.Float, len(items))
		half := bf(0)
		for i, it := range items {
			ctr[i], ws[i] = it.center(), it.weight
			vals[i] = ctr[i] + x[it.from] - x[it.to]
			exact[i] = bf(ctr[i])
			exact[i].Add(exact[i], bf(x[it.from])).Sub(exact[i], bf(x[it.to]))
			half.Add(half, bf(it.weight/2))
		}
		tr := max(oracleWeightedMedian(vals, ws), 0)
		got := alignObjective(items, tr, x)

		idx := rangeInts(len(items))
		sort.Slice(idx, func(a, b int) bool { return exact[idx[a]].Cmp(exact[idx[b]]) < 0 })
		acc, te := bf(0), bf(0)
		for _, i := range idx {
			if acc.Add(acc, bf(ws[i])); acc.Cmp(half) >= 0 {
				if exact[i].Sign() > 0 {
					te = exact[i]
				}
				break
			}
		}
		g := bf(0)
		for i := range items {
			d := new(big.Float).SetPrec(512).Sub(te, exact[i])
			g.Add(g, d.Abs(d).Mul(d, bf(ws[i])))
		}
		diff, _ := g.Sub(g, bf(got)).Float64()
		if delta := certSlack(c, items, ctr, x); !(math.Abs(diff) <= delta) {
			t.Fatalf("trial %d: |g̃ − G| = %g exceeds δ = %g", trial, math.Abs(diff), delta)
		}
	}
}

// randomAlignItems draws n items over random paths of c with jittered
// windows. About a quarter repeat an earlier item's window (exact-tie
// centers), half of those the whole item, and about a third of the rest
// carry a hold bound zero to four lattice steps below zero.
func randomAlignItems(c *circuit.Circuit, n int, r *rand.Rand) []alignItem {
	items := make([]alignItem, n)
	for i := range items {
		if i > 0 && r.Intn(4) == 0 {
			src := items[r.Intn(i)]
			if r.Intn(2) == 0 {
				items[i] = src
				continue
			}
			pt := &c.Paths[r.Intn(c.NumPaths())]
			items[i] = alignItem{path: pt.ID, from: pt.From, to: pt.To, lo: src.lo, hi: src.hi, lambda: math.Inf(-1)}
			continue
		}
		it := batchItems(c, []int{r.Intn(c.NumPaths())}, nil)[0]
		it.lo += 0.05 * r.NormFloat64()
		it.hi = it.lo + (it.hi-it.lo)*r.Float64()
		if r.Intn(3) == 0 {
			step := 0.0
			if c.Buf.Buffered[it.from] {
				step = c.Buf.StepSize(it.from)
			} else if c.Buf.Buffered[it.to] {
				step = c.Buf.StepSize(it.to)
			}
			it.lambda = -float64(r.Intn(5)) * step
		}
		items[i] = it
	}
	return items
}

func TestAlignHeuristicZeroAlloc(t *testing.T) {
	c, err := tinyCircuitErr(24, 200, 6, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The batch touching the most buffers takes the multi-start descent.
	var items []alignItem
	most := -1
	for _, b := range FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig()) {
		its := batchItems(c, b, nil)
		if n := len(touchedBufs(c, its)); n > most {
			items, most = its, n
		}
	}
	assignWeights(items, 1000, 1)
	var scr alignScratch
	prev := slices.Clone(alignHeuristic(c, items, nil, &scr).X)
	if n := testing.AllocsPerRun(20, func() { alignHeuristic(c, items, nil, &scr) }); n != 0 {
		t.Fatalf("cold solve on a warm scratch: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { alignHeuristic(c, items, prev, &scr) }); n != 0 {
		t.Fatalf("warm-start re-solve: %v allocs, want 0", n)
	}
}

func TestAlignOffKeepsBuffersZero(t *testing.T) {
	c := tinyCircuit(t, 1)
	items := batchItems(c, []int{0, 1}, nil)
	assignWeights(items, 1000, 1)
	res := alignOff(c, items, &alignScratch{})
	for f, v := range res.X {
		if v != 0 {
			t.Fatalf("buffer %d moved in AlignOff: %v", f, v)
		}
	}
	if res.T <= 0 {
		t.Fatalf("T = %v", res.T)
	}
}

// batchItems builds align items for the given paths with ±3σ windows.
func batchItems(c *circuit.Circuit, paths []int, lambda LambdaFunc) []alignItem {
	if lambda == nil {
		lambda = NoHoldBounds
	}
	items := make([]alignItem, len(paths))
	for i, p := range paths {
		pt := &c.Paths[p]
		mu, sd := pt.Max.Mean, pt.Max.Sigma()
		items[i] = alignItem{
			path: p, from: pt.From, to: pt.To,
			lo: mu - 3*sd, hi: mu + 3*sd,
			lambda: lambda(pt.From, pt.To),
		}
	}
	return items
}

func TestAlignModesAgreeOnObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP cross-check skipped in -short mode")
	}
	// The fast MILP and the paper's big-M MILP must find equal objectives
	// (they are provably the same model); the heuristic must come close.
	c := tinyCircuit(t, 2)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	r := rng.New(7, "alignmodes")
	checked := 0
	for _, batch := range batches {
		if len(batch) < 2 || len(batch) > 5 {
			continue
		}
		if checked >= 3 {
			break
		}
		checked++
		items := batchItems(c, batch, nil)
		// Perturb windows so centers differ.
		for i := range items {
			shift := 0.05 * r.NormFloat64()
			items[i].lo += shift
			items[i].hi += shift
		}
		assignWeights(items, 1000, 1)

		fast, err := alignMILP(c, items, false)
		if err != nil {
			t.Fatal(err)
		}
		paper, err := alignMILP(c, items, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast.Obj-paper.Obj) > 1e-5*(1+math.Abs(fast.Obj)) {
			t.Fatalf("fast %v vs paper %v objective mismatch", fast.Obj, paper.Obj)
		}
		heur := alignHeuristic(c, items, nil, &alignScratch{})
		if heur.Obj < fast.Obj-1e-6 {
			t.Fatalf("heuristic %v beat exact %v — exact solver is wrong", heur.Obj, fast.Obj)
		}
		if heur.Obj > fast.Obj*1.5+1e-6 {
			t.Fatalf("heuristic %v too far above exact %v", heur.Obj, fast.Obj)
		}
	}
	if checked == 0 {
		t.Skip("no suitably sized batches")
	}
}

func TestAlignmentReducesObjectiveVsNoAlignment(t *testing.T) {
	// The whole point of §3.3: moving buffers lets one T partition more
	// ranges. On a batch with spread-out centers the aligned objective must
	// beat the buffers-at-zero objective.
	c := tinyCircuit(t, 3)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	improvedSomewhere := false
	for _, batch := range batches {
		if len(batch) < 3 {
			continue
		}
		items := batchItems(c, batch, nil)
		assignWeights(items, 1000, 1)
		off := alignOff(c, items, &alignScratch{})
		heur := alignHeuristic(c, items, nil, &alignScratch{})
		if heur.Obj < off.Obj-1e-9 {
			improvedSomewhere = true
		}
		if heur.Obj > off.Obj+1e-9 {
			t.Fatalf("alignment made objective worse: %v vs %v", heur.Obj, off.Obj)
		}
	}
	if !improvedSomewhere {
		t.Fatal("alignment never improved any batch — buffers unused")
	}
}

func TestAlignRespectsLattice(t *testing.T) {
	c := tinyCircuit(t, 4)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	items := batchItems(c, batches[0], nil)
	assignWeights(items, 1000, 1)
	res := alignHeuristic(c, items, nil, &alignScratch{})
	for f := 0; f < c.NumFF; f++ {
		if !c.Buf.Buffered[f] {
			if res.X[f] != 0 {
				t.Fatalf("unbuffered FF %d moved", f)
			}
			continue
		}
		if q := c.Buf.Quantize(f, res.X[f]); math.Abs(q-res.X[f]) > 1e-9 {
			t.Fatalf("buffer %d off lattice: %v", f, res.X[f])
		}
		if res.X[f] < c.Buf.Lo[f]-1e-12 || res.X[f] > c.Buf.Hi[f]+1e-12 {
			t.Fatalf("buffer %d out of range: %v", f, res.X[f])
		}
	}
}

func TestAlignRespectsHoldBounds(t *testing.T) {
	c := tinyCircuit(t, 5)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	// Impose a mild hold bound on every batch arc.
	lambda := func(from, to int) float64 {
		step := 0.0
		if c.Buf.Buffered[from] {
			step = c.Buf.StepSize(from)
		} else if c.Buf.Buffered[to] {
			step = c.Buf.StepSize(to)
		}
		return -4 * step // within easy reach but binding for big shifts
	}
	for _, batch := range batches[:minInt(3, len(batches))] {
		items := batchItems(c, batch, lambda)
		assignWeights(items, 1000, 1)
		res := alignHeuristic(c, items, nil, &alignScratch{})
		for _, it := range items {
			if res.X[it.from]-res.X[it.to] < it.lambda-1e-9 {
				t.Fatalf("hold bound violated: x%d-x%d = %v < %v",
					it.from, it.to, res.X[it.from]-res.X[it.to], it.lambda)
			}
		}
	}
}

func TestAlignMILPRespectsHoldBounds(t *testing.T) {
	c := tinyCircuit(t, 6)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	var batch []int
	for _, b := range batches {
		if len(b) >= 2 && len(b) <= 4 {
			batch = b
			break
		}
	}
	if batch == nil {
		t.Skip("no small batch")
	}
	lambda := func(from, to int) float64 { return -0.01 }
	items := batchItems(c, batch, lambda)
	assignWeights(items, 1000, 1)
	res, err := alignMILP(c, items, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if res.X[it.from]-res.X[it.to] < it.lambda-1e-6 {
			t.Fatalf("MILP hold bound violated")
		}
	}
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
