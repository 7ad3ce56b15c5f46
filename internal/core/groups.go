package core

import (
	"context"
	"fmt"
	"sort"

	"effitest/internal/circuit"
	"effitest/internal/la"
	"effitest/internal/stats"
)

// Group is one correlation group from Procedure 1.
type Group struct {
	Paths     []int   // circuit path ids, ascending
	Threshold float64 // correlation threshold at extraction time
	NumPCs    int     // shared principal components found
	Selected  []int   // path ids chosen for frequency-stepping test
}

// SelectPaths implements Procedure 1: extract correlation groups with a
// decreasing threshold schedule, count each group's shared principal
// components, and pick one representative path per component (the path with
// the largest absolute coefficient for that component, excluding paths
// already picked). stats.Procedure1 decides both without a full
// eigendecomposition where it can certify Jacobi's answer.
//
// It returns the groups and the union of selected path ids (sorted).
func SelectPaths(c *circuit.Circuit, cfg Config) ([]Group, []int, error) {
	return selectPathsCtx(context.Background(), c, cfg)
}

// selectPathsCtx is SelectPaths with cancellation, checked once per
// extracted group — the granularity at which the expensive work (component
// search + Procedure 1) happens.
func selectPathsCtx(ctx context.Context, c *circuit.Circuit, cfg Config) ([]Group, []int, error) {
	n := c.NumPaths()
	corr := c.CorrMatrix()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	th := cfg.CorrStart
	inComp := make([]bool, n) // all false between extractions

	var groups []Group
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		seed := -1
		for p := 0; p < n && seed < 0; p++ {
			if !alive[p] {
				continue
			}
			for q := 0; q < n; q++ {
				if q != p && alive[q] && corr[p][q] >= th {
					seed = p
					break
				}
			}
		}
		if seed < 0 {
			th -= cfg.CorrStep
			if th < cfg.CorrFloor {
				// Remaining paths are weakly correlated with everything:
				// they form singleton groups and are tested directly.
				for p := 0; p < n; p++ {
					if alive[p] {
						groups = append(groups, Group{
							Paths:     []int{p},
							Threshold: th + cfg.CorrStep,
							NumPCs:    1,
							Selected:  []int{p},
						})
						alive[p] = false
						remaining--
					}
				}
				break
			}
			continue
		}

		// Extract the whole connected component of the ≥th correlation graph
		// containing the seed: physical clusters form dense blobs, so the
		// component captures the cluster even when some pairwise
		// correlations dip slightly below the threshold.
		members := []int{seed}
		inComp[seed] = true
		stack := []int{seed}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for q := 0; q < n; q++ {
				if q != u && alive[q] && !inComp[q] && corr[u][q] >= th {
					inComp[q] = true
					members = append(members, q)
					stack = append(stack, q)
				}
			}
		}
		for _, m := range members {
			inComp[m] = false
		}
		if cfg.MaxGroupSize > 0 && len(members) > cfg.MaxGroupSize {
			// Keep the seed plus its most correlated neighbours.
			sort.Slice(members[1:], func(a, b int) bool {
				return corr[seed][members[1+a]] > corr[seed][members[1+b]]
			})
			members = members[:cfg.MaxGroupSize]
		}
		sort.Ints(members)
		for _, m := range members {
			alive[m] = false
		}
		remaining -= len(members)

		g, err := analyzeGroup(c, members, th, cfg)
		if err != nil {
			return nil, nil, err
		}
		groups = append(groups, g)
	}

	var tested []int
	seen := map[int]bool{}
	for _, g := range groups {
		for _, p := range g.Selected {
			if !seen[p] {
				seen[p] = true
				tested = append(tested, p)
			}
		}
	}
	sort.Ints(tested)
	return groups, tested, nil
}

// analyzeGroup runs Procedure 1's component count and representative
// selection on a group's covariance.
func analyzeGroup(c *circuit.Circuit, members []int, th float64, cfg Config) (Group, error) {
	if len(members) == 1 {
		return Group{Paths: members, Threshold: th, NumPCs: 1, Selected: []int{members[0]}}, nil
	}
	k, reps, _, err := stats.Procedure1(groupCov(c, members), cfg.PCKaiser)
	if err != nil {
		return Group{}, fmt.Errorf("core: group PCA failed: %w", err)
	}
	selected := make([]int, len(reps))
	for i, r := range reps {
		selected[i] = members[r]
	}
	sort.Ints(selected)
	return Group{Paths: members, Threshold: th, NumPCs: k, Selected: selected}, nil
}

// groupCov returns the covariance of the member paths' max delays.
func groupCov(c *circuit.Circuit, members []int) *la.Matrix {
	cov := c.CovMatrix()
	sub := la.NewMatrix(len(members), len(members))
	for i, a := range members {
		for j, b := range members {
			sub.Set(i, j, cov[a][b])
		}
	}
	return sub
}
