package tester

import (
	"context"
	"math/rand"
	"strconv"
	"sync"

	"effitest/internal/circuit"
	"effitest/internal/pool"
	"effitest/internal/rng"
)

// BlockWidth is the number of chips the sampling kernel manufactures per
// call: their factor vectors are interleaved so each path's coefficient row
// streams once per block, and the block's dot products run as BlockWidth
// independent accumulator chains (circuit.DotRuns) instead of one
// latency-bound chain.
const BlockWidth = circuit.Lanes

// Sampler is the Monte-Carlo chip kernel behind every chip population:
// SampleChip, SampleChipRangeCtx, the §3.5 hold-bound samples and period
// calibration. It owns one random stream, re-seeded per chip, and the
// scratch of one block. A Sampler is not safe for concurrent use: each draw
// takes its own from one pool that every draw of every circuit shares.
//
// Chip i's values are bit-identical to drawing it alone: its stream is
// seeded with rng.Seed(seed, "chip", name, i) (math/rand's stream, which
// rng.Source reproduces with a faster Seed); it draws z[0..basis) and
// then (ε_max, ε_min) per path in path order; every delay is
// Mean + Σ_k Coef[k]·z[k] + Rand·ε with the sum accumulated from 0.0 in
// ascending k (la.Dot's sequence, as ssta.Canon.Sample computes it); and
// the clamps run min ≤ max first, then max ≥ 0, then min ≥ 0.
//
// The sum skips the loadings that are exactly ±0 (circuit.LoadingRuns).
// That is exact: z is finite, so each skipped product is ±0, and an
// accumulator that starts at +0.0 can never become −0.0, so adding ±0
// never changes it. Every product and sum is rounded on its own (an
// explicit float64 conversion), so no platform fuses them into one FMA.
type Sampler struct {
	c     *circuit.Circuit
	seed  int64
	r     *rand.Rand
	runs  []circuit.PathRuns
	basis int
	z     []float64 // factor block: z[k*BlockWidth+w] is chip w's factor k

	// Max[w] and Min[w] hold the realized delays of the block's chip w
	// (Min only when the block was drawn with its min delays). The next
	// draw reallocates a lane handed over to a Chip or sized for another
	// circuit.
	Max, Min [BlockWidth][]float64
}

// samplers recycles Sampler scratch across every draw in the process.
var samplers = sync.Pool{New: func() any { return &Sampler{r: rand.New(new(rng.Source))} }}

// acquire takes a pooled sampler and points it at circuit c's population
// under seed; release hands it back.
func acquire(c *circuit.Circuit, seed int64) *Sampler {
	s := samplers.Get().(*Sampler)
	s.reset(c, seed)
	return s
}

// reset points s at circuit c's population under seed. A draw re-seeds the
// stream and rewrites the factors and lane entries of every chip it makes,
// so nothing of a previous circuit or seed leaks into that chip's values.
func (s *Sampler) reset(c *circuit.Circuit, seed int64) {
	basis := c.Model.BasisSize()
	for i := range c.Paths {
		if len(c.Paths[i].Max.Coef) != basis || len(c.Paths[i].Min.Coef) != basis {
			panic("ssta: factor vector length mismatch")
		}
	}
	s.c, s.seed, s.runs, s.basis = c, seed, c.LoadingRuns(), basis
	if cap(s.z) < basis*BlockWidth {
		s.z = make([]float64, basis*BlockWidth)
	}
	s.z = s.z[:basis*BlockWidth]
}

// release returns s to the pool; an idle sampler pins no circuit.
func release(s *Sampler) {
	s.c, s.runs = nil, nil
	samplers.Put(s)
}

// draw manufactures chips first, ..., first+n-1 (n ≤ BlockWidth) into
// lanes 0..n-1. With withMin unset the min-delay draws still advance
// each chip's stream, but their dot products are skipped and Min is left
// untouched — period calibration needs only the max delays.
func (s *Sampler) draw(first, n int, withMin bool) {
	paths := s.c.Paths
	for w := range n {
		s.r.Seed(rng.Seed(s.seed, "chip", s.c.Name, strconv.Itoa(first+w)))
		for k := range s.basis {
			s.z[k*BlockWidth+w] = s.r.NormFloat64()
		}
		if len(s.Max[w]) != len(paths) {
			s.Max[w] = make([]float64, len(paths))
		}
		if withMin && len(s.Min[w]) != len(paths) {
			s.Min[w] = make([]float64, len(paths))
		}
		// Each path's private draws wait in the delay rows until the
		// products below replace them.
		hi, lo := s.Max[w], s.Min[w]
		for p := range paths {
			hi[p] = s.r.NormFloat64()
			if eps := s.r.NormFloat64(); withMin {
				lo[p] = eps
			}
		}
	}
	dot := circuit.DotRuns
	if n == 1 {
		dot = dotRuns1
	}
	for p := range paths {
		pm, pn := &paths[p].Max, &paths[p].Min
		hiDot := dot(pm.Coef, s.runs[p].Max, s.z)
		var loDot [BlockWidth]float64
		if withMin {
			loDot = dot(pn.Coef, s.runs[p].Min, s.z)
		}
		for w := range n {
			hi := pm.Mean + hiDot[w] + float64(pm.Rand*s.Max[w][p])
			var lo float64
			if withMin {
				// The min-delay shares the die's correlated factors; its
				// private part is drawn separately (a different
				// sensitizable short path).
				lo = pn.Mean + loDot[w] + float64(pn.Rand*s.Min[w][p])
				if lo > hi {
					lo = hi
				}
			}
			if hi < 0 {
				hi = 0
			}
			if lo < 0 {
				lo = 0
			}
			s.Max[w][p] = hi
			if withMin {
				s.Min[w][p] = lo
			}
		}
	}
}

// dotRuns1 is circuit.DotRuns for lane 0 alone, in the same order: the
// kernel of a one-wide draw, which would waste seven lanes' work there.
func dotRuns1(coef []float64, runs []circuit.Run, z []float64) [BlockWidth]float64 {
	var a float64
	for _, r := range runs {
		for k, cf := range coef[r.Lo:r.Hi] {
			a += float64(cf * z[(r.Lo+k)*BlockWidth])
		}
	}
	return [BlockWidth]float64{a}
}

// chip hands lane w's delays over to a standalone chip with manufacturing
// index idx.
func (s *Sampler) chip(w, idx int) *Chip {
	ch := &Chip{Circuit: s.c, Index: idx, TrueMax: s.Max[w], TrueMin: s.Min[w]}
	s.Max[w], s.Min[w] = nil, nil
	return ch
}

// ForEachBlock manufactures the chips with indices [first, first+n) in
// blocks of BlockWidth on a bounded worker pool (workers as in
// core.Config.Workers: 0 = all CPUs) and hands each block to fn: lane w of
// s holds chip first+start+w, for w < count. Blocks run concurrently, so
// fn must write only the slots of its own chips; every chip's values are
// the same at any worker count. The context is checked between blocks.
func ForEachBlock(ctx context.Context, c *circuit.Circuit, seed int64, first, n, workers int, withMin bool, fn func(s *Sampler, start, count int)) error {
	blocks := (n + BlockWidth - 1) / BlockWidth
	return pool.ForEach(ctx, blocks, workers, func(b int) error {
		s := acquire(c, seed)
		start := b * BlockWidth
		count := min(BlockWidth, n-start)
		s.draw(first+start, count, withMin)
		fn(s, start, count)
		release(s)
		return nil
	})
}
