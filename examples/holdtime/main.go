// Holdtime: §3.5 of the paper. Tuning buffers shift clock edges, which can
// break hold-time constraints on short paths. Instead of testing for hold
// violations on the tester, EffiTest derives per-arc lower bounds λij on
// x_i - x_j by Monte-Carlo sampling of the short-path delays, keeping the
// hold yield above a target (Eq. 20) while leaving the buffers as much
// configuration freedom as possible (minimal Σλ).
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"effitest"
)

func main() {
	profile := effitest.NewProfile("hold-demo", 36, 420, 4, 40)
	c, err := effitest.Generate(profile, 21)
	if err != nil {
		log.Fatal(err)
	}

	cfg := effitest.DefaultConfig()
	cfg.HoldSamples = 400

	for _, target := range []float64{1.0, 0.99, 0.95} {
		cfg.HoldYield = target
		hb, err := effitest.ComputeHoldBounds(c, cfg)
		if err != nil {
			log.Fatal(err)
		}
		achieved, err := effitest.HoldYieldEstimate(c, hb, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("target hold yield %.2f: achieved %.3f, Σλ = %+.4f ns over %d arcs\n",
			target, achieved, hb.SumLambda(), len(hb.ByPair))
	}

	// Show the tightest bounds for the default 0.99 target. The engine
	// computes them as part of its offline plan (New = Prepare + period
	// calibration), so production callers never invoke ComputeHoldBounds
	// directly.
	eng, err := effitest.New(c,
		effitest.WithHoldYield(0.99),
		effitest.WithHoldSamples(400),
		effitest.WithPeriodQuantile(0.8413, 200),
	)
	if err != nil {
		log.Fatal(err)
	}
	hb := eng.Plan().Hold
	type arc struct {
		from, to int
		lambda   float64
	}
	arcs := make([]arc, 0, len(hb.ByPair))
	for pair, l := range hb.ByPair {
		arcs = append(arcs, arc{pair[0], pair[1], l})
	}
	sort.Slice(arcs, func(i, j int) bool { return arcs[i].lambda > arcs[j].lambda })
	fmt.Println("\nfive tightest hold bounds (λij = lower bound on x_i - x_j):")
	for _, a := range arcs[:int(math.Min(5, float64(len(arcs))))] {
		fmt.Printf("  FF%3d -> FF%3d: x_%d - x_%d ≥ %+.4f ns\n", a.from, a.to, a.from, a.to, a.lambda)
	}
	fmt.Println("\nthese constraints enter both the aligned-test ILP (Eqs. 7-14) and the")
	fmt.Println("final configuration model (Eqs. 15-18) as Eq. 21.")
}
