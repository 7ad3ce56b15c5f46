package workload

import (
	"math"
	"slices"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/tester"
)

func TestValidAndCanonical(t *testing.T) {
	for _, name := range append(Types(), "") {
		if !Valid(name) {
			t.Errorf("Valid(%q) = false", name)
		}
	}
	for _, name := range []string{"binning", "EFFITEST", "clock_binning", "aging"} {
		if Valid(name) {
			t.Errorf("Valid(%q) = true", name)
		}
	}
	if got := Canonical(""); got != TypeEffiTest {
		t.Errorf("Canonical(\"\") = %q", got)
	}
	if got := Canonical(TypeAgingDrift); got != TypeAgingDrift {
		t.Errorf("Canonical(aging) = %q", got)
	}
}

func TestCheck(t *testing.T) {
	cases := []struct {
		name    string
		edges   []float64
		drift   float64
		wantErr bool
	}{
		{TypeEffiTest, nil, 0, false},
		{"", nil, 0, false},
		{TypeClockBinning, []float64{1, 2}, 0, false},
		{TypeAgingDrift, nil, 0.05, false},
		{TypeAgingDrift, nil, 0, false},
		{"bogus", nil, 0, true},
		{TypeClockBinning, nil, 0, true},             // binning needs edges
		{TypeClockBinning, []float64{2, 1}, 0, true}, // not ascending
		{TypeEffiTest, []float64{1}, 0, true},        // edges without binning
		{TypeEffiTest, nil, 0.1, true},               // drift without aging
		{TypeAgingDrift, nil, 5, true},               // drift out of range
		{TypeAgingDrift, []float64{1}, 0.05, true},   // edges on aging
		{TypeClockBinning, []float64{1}, 0.05, true}, // drift on binning
		{TypeAgingDrift, nil, math.NaN(), true},      // non-finite drift
		{TypeClockBinning, []float64{0, 1}, 0, true}, // non-positive edge
		{TypeClockBinning, []float64{math.Inf(1)}, 0, true},
	}
	for _, c := range cases {
		err := Check(c.name, c.edges, c.drift)
		if (err != nil) != c.wantErr {
			t.Errorf("Check(%q, %v, %v) err = %v, wantErr %v", c.name, c.edges, c.drift, err, c.wantErr)
		}
	}
}

func TestClassify(t *testing.T) {
	edges := []float64{1.0, 1.1, 1.25}
	cases := []struct {
		achieved float64
		want     int
	}{
		{0.5, 0}, {1.0, 0}, {1.0001, 1}, {1.1, 1}, {1.2, 2}, {1.25, 2}, {1.26, 3}, {99, 3},
	}
	for _, c := range cases {
		if got := Classify(edges, c.achieved); got != c.want {
			t.Errorf("Classify(%v) = %d, want %d", c.achieved, got, c.want)
		}
	}
}

func TestBinAggMergeExact(t *testing.T) {
	edges := []float64{1.0, 1.1, 1.25}
	achieved := []float64{0.9, 1.05, 1.07, 1.2, 1.3, 0.2, 1.11, 1.25, 2.0, 1.0}

	// Sequential fold.
	whole := NewBinAgg(edges)
	for _, a := range achieved {
		whole.Observe(a)
	}
	whole.ObserveUnbinned()
	whole.ObserveUnbinned()

	// Every contiguous 3-way split, its shards' chips observed into one
	// histogram in arrival order as a coordinator receives them, must fold
	// to the identical histogram.
	for i := 0; i <= len(achieved); i++ {
		for j := i; j <= len(achieved); j++ {
			shards := [][]float64{achieved[:i], achieved[i:j], achieved[j:]}
			merged := NewBinAgg(edges)
			merged.ObserveUnbinned() // shard 2's unconfigured chip arrives first
			for k := range achieved {
				// Shards stream concurrently: their chips interleave.
				for _, p := range []int{2, 0, 1} {
					if k < len(shards[p]) {
						merged.Observe(shards[p][k])
					}
				}
			}
			merged.ObserveUnbinned() // shard 0's arrives last
			if !slices.Equal(merged.Counts, whole.Counts) || merged.Unbinned != whole.Unbinned {
				t.Fatalf("split (%d,%d): merged %v/%d != whole %v/%d",
					i, j, merged.Counts, merged.Unbinned, whole.Counts, whole.Unbinned)
			}
		}
	}
	if whole.Chips() != len(achieved)+2 {
		t.Errorf("Chips() = %d, want %d", whole.Chips(), len(achieved)+2)
	}
}

func TestBinAggClone(t *testing.T) {
	a := NewBinAgg([]float64{1, 2})
	a.Observe(0.5)
	c := a.Clone()
	c.Observe(1.5)
	c.Edges[0] = 9
	if a.Counts[1] != 0 || a.Edges[0] != 1 {
		t.Errorf("clone aliases original: %+v", a)
	}
	var nilAgg *BinAgg
	if nilAgg.Clone() != nil {
		t.Error("nil.Clone() != nil")
	}
}

func testChip(t *testing.T) *tester.Chip {
	t.Helper()
	c, err := circuit.Generate(circuit.TinyProfile("wl-test", 16, 120, 4, 24), 7)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tester.SampleChip(c, 11, 0)
}

func TestAchievedPeriod(t *testing.T) {
	ch := testChip(t)
	x := make([]float64, ch.Circuit.NumFF)

	// With zero skew the achieved period is exactly the critical delay.
	if got, want := ch.AchievedPeriod(x), ch.CriticalDelay(); got != want {
		t.Errorf("zero-skew achieved %v != critical delay %v", got, want)
	}

	// The chip passes setup exactly at (and not below) the achieved period.
	for i := range x {
		x[i] = float64(i%3) * 0.01
	}
	ap := ch.AchievedPeriod(x)
	if !ch.PassesAt(ap, x) {
		t.Errorf("chip fails setup at its own achieved period %v", ap)
	}
	if ch.PassesAt(ap-1e-9, x) {
		t.Errorf("chip passes setup below its achieved period %v", ap)
	}
}

func TestApplyDrift(t *testing.T) {
	ch := testChip(t)
	aged := ApplyDrift(ch, 0.1)
	if aged == ch {
		t.Fatal("nonzero drift returned the input chip")
	}
	for i := range ch.TrueMax {
		if want := ch.TrueMax[i] * 1.1; aged.TrueMax[i] != want {
			t.Fatalf("TrueMax[%d] = %v, want %v", i, aged.TrueMax[i], want)
		}
		if want := ch.TrueMin[i] * 1.1; aged.TrueMin[i] != want {
			t.Fatalf("TrueMin[%d] = %v, want %v", i, aged.TrueMin[i], want)
		}
		if aged.TrueMin[i] > aged.TrueMax[i] {
			t.Fatalf("drift broke TrueMin <= TrueMax at %d", i)
		}
	}
	if aged.Circuit != ch.Circuit || aged.Index != ch.Index {
		t.Error("drift changed chip identity")
	}
	if ApplyDrift(ch, 0) != ch {
		t.Error("zero drift did not return the input chip")
	}

	// Determinism: applying the same drift twice gives identical slices.
	again := ApplyDrift(ch, 0.1)
	if !slices.Equal(aged.TrueMax, again.TrueMax) || !slices.Equal(aged.TrueMin, again.TrueMin) {
		t.Error("ApplyDrift is not deterministic")
	}
}

func TestDriftMonotoneAchieved(t *testing.T) {
	// Aging can only slow a chip down: achieved period under any fixed
	// configuration is non-decreasing in drift.
	ch := testChip(t)
	x := make([]float64, ch.Circuit.NumFF)
	for i := range x {
		x[i] = float64(i%2) * 0.02
	}
	prev := ApplyDrift(ch, -0.1).AchievedPeriod(x)
	for _, d := range []float64{0, 0.05, 0.1, 0.5} {
		ap := ApplyDrift(ch, d).AchievedPeriod(x)
		if ap < prev {
			t.Fatalf("achieved period decreased with drift %v: %v < %v", d, ap, prev)
		}
		prev = ap
	}
}
