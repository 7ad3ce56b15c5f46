package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/stats"
)

// TestSelectPathsMatchesJacobi pins the certified Procedure 1 to the Jacobi
// path it replaces: on every Table-1 profile (gen seeds 1–3, seed 1 under
// -short) and the conformance circuits, each multi-path group's NumPCs and
// Selected must equal what Jacobi decides for the same members. Group
// membership never reads a Procedure 1 result, so comparing group by group
// is comparing against a whole Jacobi run of SelectPaths. The test logs how
// many groups the fast path left to Jacobi.
//
// Under the race detector the two profiles over 1,000 paths are left out:
// their Jacobi reference is minutes of single-goroutine arithmetic there,
// which the detector has nothing to check in.
func TestSelectPathsMatchesJacobi(t *testing.T) {
	type gen struct {
		p    circuit.Profile
		seed int64
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var gens []gen
	for _, p := range circuit.Table1Profiles {
		if raceDetector && p.NumPaths > 1000 {
			continue
		}
		for _, s := range seeds {
			gens = append(gens, gen{p, s})
		}
	}
	gens = append(gens, gen{circuit.TinyProfile("tiny64", 64, 640, 6, 72), 1})
	cfg := DefaultConfig()
	for _, g := range gens {
		t.Run(fmt.Sprintf("%s/gen%d", g.p.Name, g.seed), func(t *testing.T) {
			t.Parallel()
			c, err := circuit.Generate(g.p, g.seed)
			if err != nil {
				t.Fatal(err)
			}
			circuits := []*circuit.Circuit{c}
			if g.p.Name == "s9234" && g.seed == 1 {
				// Figure 7 prepares the inflated copy.
				inflated, err := c.WithInflatedSigma(1.1)
				if err != nil {
					t.Fatal(err)
				}
				circuits = append(circuits, inflated)
			}
			for _, c := range circuits {
				groups, _, err := SelectPaths(c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				multi, fallbacks := 0, 0
				for gi, grp := range groups {
					if len(grp.Paths) == 1 {
						continue
					}
					multi++
					sub := groupCov(c, grp.Paths)
					k, reps, err := stats.Procedure1Jacobi(sub, cfg.PCKaiser)
					if err != nil {
						t.Fatal(err)
					}
					want := make([]int, len(reps))
					for i, r := range reps {
						want[i] = grp.Paths[r]
					}
					sort.Ints(want)
					if grp.NumPCs != k || !slices.Equal(grp.Selected, want) {
						t.Fatalf("group %d (%d paths): NumPCs %d Selected %v, Jacobi says %d %v",
							gi, len(grp.Paths), grp.NumPCs, grp.Selected, k, want)
					}
					if _, _, certified, _ := stats.Procedure1(sub, cfg.PCKaiser); !certified {
						fallbacks++
					}
				}
				t.Logf("%s: %d multi-path groups, %d fell back to Jacobi", c.Name, multi, fallbacks)
			}
		})
	}
}
