package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/skew"
	"effitest/internal/tester"
)

// pairBound aggregates parallel paths between the same FF pair: every path's
// constraints must hold, so the pair's effective bounds are the maxima.
type pairBound struct {
	from, to int
	u, l     float64
	lambda   float64
}

// pairBounds is the per-call pair aggregation configuration ran before the
// plan baked its FF-pair topology.
func pairBounds(c *circuit.Circuit, b *Bounds, hb *HoldBounds) []pairBound {
	idx := map[[2]int]int{}
	var out []pairBound
	for i := range c.Paths {
		p := &c.Paths[i]
		key := [2]int{p.From, p.To}
		j, ok := idx[key]
		if !ok {
			j = len(out)
			idx[key] = j
			out = append(out, pairBound{
				from: p.From, to: p.To,
				u: math.Inf(-1), l: math.Inf(-1),
				lambda: hb.Lambda(p.From, p.To),
			})
		}
		out[j].u = math.Max(out[j].u, b.Hi[i])
		out[j].l = math.Max(out[j].l, b.Lo[i])
	}
	return out
}

// configureScalableOracle is the scalable configuration as it stood before
// the plan baked it: pair bounds rebuilt through a map, fresh arcs for
// every ξ probe and one allocating skew.FeasibleDiscrete per probe, each
// returning its own assignment. The baked kernel is pinned to it bit for
// bit; skew's FuzzLatticeMatchesDense pins FeasibleDiscrete's lattice to
// the dense solver in turn.
func configureScalableOracle(c *circuit.Circuit, b *Bounds, hb *HoldBounds, Td float64) ConfigureResult {
	pbs := pairBounds(c, b, hb)
	arcsAt := func(xi float64) []skew.Timing {
		arcs := make([]skew.Timing, len(pbs))
		for i, pb := range pbs {
			arcs[i] = skew.Timing{
				From: pb.from, To: pb.to,
				Setup: math.Max(pb.u-xi, pb.l),
				Hold:  pb.lambda,
			}
		}
		return arcs
	}
	xiMax := 0.0
	for _, pb := range pbs {
		if w := pb.u - pb.l; w > xiMax {
			xiMax = w
		}
	}
	xSat, ok := skew.FeasibleDiscrete(Td, arcsAt(xiMax), c.Buf)
	if !ok {
		return ConfigureResult{Feasible: false}
	}
	if x0, ok := skew.FeasibleDiscrete(Td, arcsAt(0), c.Buf); ok {
		return ConfigureResult{X: x0, Xi: 0, Feasible: true}
	}
	lo, hi := 0.0, xiMax
	bestX := xSat
	for it := 0; it < 48; it++ {
		mid := (lo + hi) / 2
		if x, ok := skew.FeasibleDiscrete(Td, arcsAt(mid), c.Buf); ok {
			hi = mid
			bestX = x
		} else {
			lo = mid
		}
	}
	return ConfigureResult{X: bestX, Xi: hi, Feasible: true}
}

// configureCaseBounds draws one chip's delay windows the way the flow leaves
// them: narrow windows around the realized delay for measured paths, wider
// offset ones for predicted paths, and the prior μ±3σ window for some.
func configureCaseBounds(r *rand.Rand, prior *Bounds, ch *tester.Chip) *Bounds {
	b := prior.clone()
	for p, d := range ch.TrueMax {
		switch r.Intn(4) {
		case 0: // left at the prior window
		case 1:
			w := 0.05 * d * r.Float64()
			c := d + w*(r.Float64()-0.5)
			b.Lo[p], b.Hi[p] = math.Max(c-w, 0), c+w
		default:
			b.Lo[p], b.Hi[p] = d-0.001*r.Float64(), d+0.002*r.Float64()
		}
	}
	return b
}

// TestConfigureMatchesOracle pins the plan's baked configuration to the
// pre-bake oracle on every Table-1 profile: 200 chips each (20 in -short),
// configured in turn on one warm scratch, with periods from well below to
// above each chip's critical delay so infeasible chips are included. The
// Feasible flag, the bits of ξ and the bits of every buffer value must
// match.
func TestConfigureMatchesOracle(t *testing.T) {
	chips := 200
	if testing.Short() {
		chips = 20
	}
	for _, prof := range circuit.Table1Profiles {
		t.Run(prof.Name, func(t *testing.T) {
			c, err := circuit.Generate(prof, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.HoldSamples = 100
			hb, err := ComputeHoldBounds(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sampled, err := tester.SampleChipRangeCtx(context.Background(), c, 41, 0, chips, 1)
			if err != nil {
				t.Fatal(err)
			}
			k := newConfigKernel(c)
			prior := InitBounds(c)
			var scr configScratch
			r := rand.New(rand.NewSource(int64(len(prof.Name))))
			feasible := 0
			for i, ch := range sampled {
				b := configureCaseBounds(r, prior, ch)
				Td := ch.CriticalDelay() * (0.85 + 0.25*r.Float64())
				got := k.configure(b, hb, Td, &scr)
				want := configureScalableOracle(c, b, hb, Td)
				if got.Feasible != want.Feasible {
					t.Fatalf("chip %d: Feasible %v, oracle %v", i, got.Feasible, want.Feasible)
				}
				if !want.Feasible {
					if got.X != nil {
						t.Fatalf("chip %d: infeasible configuration returned X", i)
					}
					continue
				}
				feasible++
				if math.Float64bits(got.Xi) != math.Float64bits(want.Xi) {
					t.Fatalf("chip %d: Xi %v, oracle %v", i, got.Xi, want.Xi)
				}
				if len(got.X) != len(want.X) {
					t.Fatalf("chip %d: len(X) %d, oracle %d", i, len(got.X), len(want.X))
				}
				for f := range got.X {
					if math.Float64bits(got.X[f]) != math.Float64bits(want.X[f]) {
						t.Fatalf("chip %d: X[%d] = %v, oracle %v", i, f, got.X[f], want.X[f])
					}
				}
			}
			if feasible == 0 || feasible == chips {
				t.Fatalf("%d of %d chips feasible: the sample must include both outcomes", feasible, chips)
			}
		})
	}
}

// TestPlanConfigureZeroAlloc holds the plan's configuration on a warm
// scratch at one allocation for a feasible chip (the X the outcome keeps)
// and none for an infeasible one.
func TestPlanConfigureZeroAlloc(t *testing.T) {
	c := tinyCircuit(t, 13)
	cfg := DefaultConfig()
	cfg.HoldSamples = 100
	pl, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := tester.SampleChip(c, 5, 0)
	b := InitBounds(c)
	for p, d := range ch.TrueMax {
		b.Lo[p], b.Hi[p] = d-0.001, d+0.001
	}
	scr := pl.newChipScratch()
	for _, tc := range []struct {
		name     string
		Td       float64
		feasible bool
		allocs   float64
	}{
		{"feasible", 1.2 * ch.CriticalDelay(), true, 1},
		{"infeasible", 0.5 * ch.CriticalDelay(), false, 0},
	} {
		configure := func() {
			res := pl.conf.configure(b, pl.Hold, tc.Td, &scr.conf)
			if res.Feasible != tc.feasible {
				t.Fatalf("%s: Feasible = %v", tc.name, res.Feasible)
			}
		}
		configure() // warm the scratch
		if allocs := testing.AllocsPerRun(20, configure); allocs != tc.allocs {
			t.Errorf("%s: warm configure makes %v allocations, want %v", tc.name, allocs, tc.allocs)
		}
	}
}
