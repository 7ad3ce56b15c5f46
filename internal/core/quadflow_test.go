package core

import (
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/tester"
	"effitest/internal/variation"
)

// TestFlowOnQuadTreeModel runs the complete EffiTest flow on a circuit whose
// spatial correlations come from the Chang–Sapatnekar quad-tree model
// instead of the default exponential grid: the algorithms are model-agnostic
// and must work unchanged.
func TestFlowOnQuadTreeModel(t *testing.T) {
	gen := circuit.DefaultGenConfig()
	gen.Variation.Kind = variation.KindQuadTree
	gen.Variation.QuadTree = variation.QuadTreeConfig{Levels: 4}
	c, err := circuit.GenerateWith(circuit.TinyProfile("quad", 24, 200, 3, 30), 5, gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	plan, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumTested() == 0 || plan.NumTested() >= c.NumPaths() {
		t.Fatalf("npt = %d of %d", plan.NumTested(), c.NumPaths())
	}
	ch := tester.SampleChip(c, 7, 0)
	td := chipQuantile(c, 0.9)
	out, err := plan.RunChip(t.Context(), ch, td, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations <= 0 {
		t.Fatal("no iterations")
	}
	// Measured paths resolved and bracketing as usual.
	for _, p := range plan.Tested {
		if w := out.Bounds.Hi[p] - out.Bounds.Lo[p]; w >= cfg.Eps {
			t.Fatalf("path %d unresolved under quad-tree model", p)
		}
	}
}
