package workload

import (
	"fmt"
	"math"
	"slices"
)

// ValidateEdges checks clock-binning period bin edges: at least one edge,
// every edge finite and positive, strictly ascending.
func ValidateEdges(edges []float64) error {
	if len(edges) == 0 {
		return fmt.Errorf("clock binning needs at least one period bin edge")
	}
	for i, e := range edges {
		if math.IsNaN(e) || math.IsInf(e, 0) || e <= 0 {
			return fmt.Errorf("bin edge %d: %v is not a positive finite period", i, e)
		}
		if i > 0 && e <= edges[i-1] {
			return fmt.Errorf("bin edge %d: %v does not ascend past %v", i, e, edges[i-1])
		}
	}
	return nil
}

// Classify returns the bin index for an achieved period: the first bin
// whose edge is >= achieved (bin i is sold as "runs at period edges[i]").
// It returns len(edges) — the unbinned bucket — when the chip is slower
// than every edge.
func Classify(edges []float64, achieved float64) int {
	for i, e := range edges {
		if achieved <= e {
			return i
		}
	}
	return len(edges)
}

// BinAgg is the exactly-mergeable clock-binning histogram: one integer
// chip count per period bin plus an unbinned bucket for chips slower than
// the last edge or never configured. Like yield.Agg it holds only exact
// integer counts, so observing a sharded campaign's chips in whatever order
// they arrive folds bit-identically to a single-process run.
type BinAgg struct {
	// Edges are the ascending period bin edges; bin i counts chips whose
	// achieved period is <= Edges[i] (and > Edges[i-1] for i > 0).
	Edges []float64
	// Counts has one chip count per edge.
	Counts []int
	// Unbinned counts chips slower than every edge or never configured.
	Unbinned int
}

// NewBinAgg returns an empty histogram over the given edges. The edge
// slice is copied; callers may reuse theirs.
func NewBinAgg(edges []float64) *BinAgg {
	return &BinAgg{Edges: slices.Clone(edges), Counts: make([]int, len(edges))}
}

// Observe bins one configured chip by its achieved period.
func (b *BinAgg) Observe(achieved float64) {
	if i := Classify(b.Edges, achieved); i < len(b.Counts) {
		b.Counts[i]++
	} else {
		b.Unbinned++
	}
}

// ObserveUnbinned counts one chip that never reached a configuration (the
// flow gave up or errored), which no frequency bin can claim.
func (b *BinAgg) ObserveUnbinned() {
	b.Unbinned++
}

// Chips returns the total chips observed across all buckets.
func (b *BinAgg) Chips() int {
	n := b.Unbinned
	for _, c := range b.Counts {
		n += c
	}
	return n
}

// Clone returns an independent copy.
func (b *BinAgg) Clone() *BinAgg {
	if b == nil {
		return nil
	}
	return &BinAgg{Edges: slices.Clone(b.Edges), Counts: slices.Clone(b.Counts), Unbinned: b.Unbinned}
}
