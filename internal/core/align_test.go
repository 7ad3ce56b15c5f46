package core

import (
	"fmt"
	"math"
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

// oracleAlignHeuristic is the full-resort evaluator alignHeuristic
// replaced: every lattice probe rebuilds the shifted centers from the
// items, re-sorts them with their weights from item order, re-derives the
// objective through alignObjective and scans every item for hold
// violations. The search is alignHeuristic's, step for step, on fresh
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

// TestAlignHeuristicMatchesOracle pins the incremental evaluator bitwise
// to the full-resort oracle on random batches: sizes 1–40, exact-tie
// centers and duplicated items, hold bounds, cold solves, warm re-solves
// from the previous result (aliasing the scratch, as runBatchTest does)
// and from off-lattice vectors, and integer and non-integer weights. One
// scratch serves every solve, so stale state from a larger batch would
// show.
func TestAlignHeuristicMatchesOracle(t *testing.T) {
	six, err := tinyCircuitErr(24, 200, 6, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*circuit.Circuit{tinyCircuit(t, 1), tinyCircuit(t, 8), six}
	weights := [][2]float64{{1000, 1}, {7.3, 0.37}, {1000.5, 0.1}}
	r := rng.New(11, "alignoracle")
	var scr alignScratch

	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(what string, got, want alignResult) {
		t.Helper()
		if !same(got.T, want.T) || !same(got.Obj, want.Obj) {
			t.Fatalf("%s: T %v vs oracle %v, Obj %v vs oracle %v", what, got.T, want.T, got.Obj, want.Obj)
		}
		for f := range want.X {
			if !same(got.X[f], want.X[f]) {
				t.Fatalf("%s: X[%d] %v vs oracle %v", what, f, got.X[f], want.X[f])
			}
		}
	}
	descents, holds := 0, 0
	for ci, c := range circuits {
		for n := 1; n <= 40; n++ {
			for trial := 0; trial < 2; trial++ {
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

				cold := alignHeuristic(c, items, nil, &scr)
				check(what+", cold", cold, oracleAlignHeuristic(c, items, nil))

				// Warm re-solve after the windows shrink, handing back the
				// scratch-aliased X.
				prev := slices.Clone(cold.X)
				for i := range items {
					items[i].lo += 0.25 * (items[i].hi - items[i].lo) * r.Float64()
				}
				assignWeights(items, k[0], k[1])
				check(what+", warm", alignHeuristic(c, items, cold.X, &scr), oracleAlignHeuristic(c, items, prev))

				// Warm start from an off-lattice vector.
				for f := range prev {
					if c.Buf.Buffered[f] {
						prev[f] = c.Buf.Lo[f] + (c.Buf.Hi[f]-c.Buf.Lo[f])*r.Float64()
					}
				}
				check(what+", off-lattice prev", alignHeuristic(c, items, prev, &scr), oracleAlignHeuristic(c, items, prev))

				centers := make([]float64, n)
				ws := make([]float64, n)
				for i, it := range items {
					centers[i], ws[i] = it.center(), it.weight
				}
				tOff := oracleWeightedMedian(centers, ws)
				check(what+", off", alignOff(c, items, &scr),
					alignResult{T: tOff, X: make([]float64, c.NumFF), Obj: alignObjective(items, tOff, make([]float64, c.NumFF))})
			}
		}
	}
	if descents == 0 || holds == 0 {
		t.Fatalf("coverage: %d coordinate-descent batches, %d hold-bounded items", descents, holds)
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
