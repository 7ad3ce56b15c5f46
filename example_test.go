package effitest_test

import (
	"fmt"

	"effitest"
)

// ExampleMinPeriodUnconstrained reproduces the paper's Figure 2: four
// flip-flops in a loop whose minimum clock period drops from 8 (slowest
// stage) to 5.5 (cycle mean) with post-silicon clock tuning.
func ExampleMinPeriodUnconstrained() {
	arcs := []effitest.Timing{
		{From: 0, To: 1, Setup: 3, Hold: -3},
		{From: 1, To: 2, Setup: 8, Hold: -8},
		{From: 2, To: 3, Setup: 5, Hold: -5},
		{From: 3, To: 0, Setup: 6, Hold: -6},
	}
	min, _ := effitest.MinPeriodUnconstrained(4, arcs)
	fmt.Printf("minimum period with tuning: %.1f\n", min)
	// Output: minimum period with tuning: 5.5
}

// ExampleGenerate shows deterministic benchmark generation: the published
// Table 1 statistics are reproduced exactly.
func ExampleGenerate() {
	profile, _ := effitest.ProfileByName("s9234")
	c, err := effitest.Generate(profile, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d FFs, %d gates, %d buffers, %d paths\n",
		c.Name, c.NumFF, c.NumGates(), c.NumBuffers(), c.NumPaths())
	// Output: s9234: 211 FFs, 5597 gates, 2 buffers, 80 paths
}

// ExampleNew builds an engine — running the offline flow — and reports how
// few paths need real tester measurements.
func ExampleNew() {
	c, err := effitest.Generate(effitest.NewProfile("doc", 24, 200, 3, 30), 1)
	if err != nil {
		panic(err)
	}
	eng, err := effitest.New(c)
	if err != nil {
		panic(err)
	}
	fmt.Printf("measure %d of %d paths\n", eng.Plan().NumTested(), c.NumPaths())
	// Output: measure 6 of 30 paths
}

// ExampleFeasibleSkewsDiscrete checks a clock period against the discrete
// buffer lattice exactly.
func ExampleFeasibleSkewsDiscrete() {
	arcs := []effitest.Timing{{From: 0, To: 1, Setup: 6, Hold: -6}}
	b := effitest.UniformBuffers(2, []int{1}, -1, 1, 20)
	if x, ok := effitest.FeasibleSkewsDiscrete(5.5, arcs, b); ok {
		fmt.Printf("feasible with x1 = %.1f\n", x[1])
	}
	// Output: feasible with x1 = 0.5
}
