package core

import (
	"testing"
)

// TestPredictBoundsNoMeasurementsFallsBack covers the degraded path where a
// group has no tested member: the prior ±3σ windows must survive untouched.
func TestPredictBoundsNoMeasurementsFallsBack(t *testing.T) {
	c := tinyCircuit(t, 14)
	groups, _, err := SelectPaths(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := InitBounds(c)
	prior := InitBounds(c)
	// Claim nothing was tested at all.
	kernelPredict(t, c, groups, nil, b)
	for p := 0; p < c.NumPaths(); p++ {
		if b.Lo[p] != prior.Lo[p] || b.Hi[p] != prior.Hi[p] {
			t.Fatalf("path %d: windows changed without measurements", p)
		}
	}
}

// TestPredictBoundsConservativeBias: because the conditional mean uses the
// *upper* bounds of the measured windows, predictions must be biased upward
// relative to conditioning on the window midpoints.
func TestPredictBoundsConservativeBias(t *testing.T) {
	c := tinyCircuit(t, 15)
	cfg := DefaultConfig()
	groups, tested, err := SelectPaths(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	testedSet := map[int]bool{}
	for _, p := range tested {
		testedSet[p] = true
	}
	// Give every tested path an artificial window of width 2w centered on
	// its mean.
	const w = 0.01
	bUpper := InitBounds(c)
	for _, p := range tested {
		mu := c.Paths[p].Max.Mean
		bUpper.Lo[p] = mu - w
		bUpper.Hi[p] = mu + w
	}
	kernelPredict(t, c, groups, tested, bUpper)
	// Conditioning on exact means (zero-width windows) gives the unbiased
	// reference.
	bMid := InitBounds(c)
	for _, p := range tested {
		mu := c.Paths[p].Max.Mean
		bMid.Lo[p] = mu
		bMid.Hi[p] = mu
	}
	kernelPredict(t, c, groups, tested, bMid)
	for p := 0; p < c.NumPaths(); p++ {
		if testedSet[p] {
			continue
		}
		upperMid := (bUpper.Lo[p] + bUpper.Hi[p]) / 2
		refMid := (bMid.Lo[p] + bMid.Hi[p]) / 2
		if upperMid < refMid-1e-9 {
			t.Fatalf("path %d: upper-bound conditioning gave a lower prediction (%v < %v)",
				p, upperMid, refMid)
		}
	}
}
