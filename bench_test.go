// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations over the flow's design choices.
//
// Each Benchmark<Artifact>/<circuit> op regenerates that artifact's row for
// the circuit at benchmark scale (a few chips); cmd/efftables runs the same
// code at full scale. Set EFFITEST_BENCH_ALL=1 to include the two largest
// circuits (mem_ctrl, pci_bridge32).
package effitest_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"effitest"
)

// benchCircuits returns the circuits benchmarked by default (the two
// largest are opt-in: their np ≈ 3k-3.5k path-wise baselines dominate
// wall-clock without changing what is measured).
func benchCircuits() []string {
	names := []string{"s9234", "s13207", "s15850", "s38584", "usb_funct", "ac97_ctrl"}
	if os.Getenv("EFFITEST_BENCH_ALL") != "" {
		names = append(names, "mem_ctrl", "pci_bridge32")
	}
	return names
}

func benchExpConfig() effitest.ExpConfig {
	cfg := effitest.DefaultExpConfig()
	cfg.CostChips = 3
	cfg.YieldChips = 40
	cfg.Fig8Chips = 1
	cfg.QuantileChips = 300
	return cfg
}

// BenchmarkTable1 regenerates Table 1 rows: test cost of the proposed flow
// (ta, tv) against path-wise frequency stepping (t′a, t′v). The headline
// metric ra (iteration reduction) is reported per op.
func BenchmarkTable1(b *testing.B) {
	for _, name := range benchCircuits() {
		p, _ := effitest.ProfileByName(name)
		b.Run(name, func(b *testing.B) {
			var lastRA float64
			for i := 0; i < b.N; i++ {
				row, err := effitest.RunTable1(context.Background(), p, benchExpConfig())
				if err != nil {
					b.Fatal(err)
				}
				lastRA = row.RA
			}
			b.ReportMetric(lastRA, "ra_%")
		})
	}
}

// BenchmarkTable2 regenerates Table 2 rows: yield with ideal measurement
// (yi) vs the proposed flow (yt) at the T2 period.
func BenchmarkTable2(b *testing.B) {
	for _, name := range benchCircuits() {
		p, _ := effitest.ProfileByName(name)
		b.Run(name, func(b *testing.B) {
			var lastYT float64
			for i := 0; i < b.N; i++ {
				row, err := effitest.RunTable2(context.Background(), p, benchExpConfig())
				if err != nil {
					b.Fatal(err)
				}
				lastYT = row.T2YT
			}
			b.ReportMetric(lastYT, "t2_yt_%")
		})
	}
}

// BenchmarkFig7 regenerates Figure 7 bar groups: yield with standard
// deviations inflated 10% (covariances unchanged).
func BenchmarkFig7(b *testing.B) {
	for _, name := range benchCircuits() {
		p, _ := effitest.ProfileByName(name)
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				row, err := effitest.RunFig7(context.Background(), p, benchExpConfig())
				if err != nil {
					b.Fatal(err)
				}
				last = row.Proposed
			}
			b.ReportMetric(last, "proposed_%")
		})
	}
}

// BenchmarkFig8 regenerates Figure 8 bar groups: iterations per path with
// no statistical prediction (all np paths measured), across path-wise /
// multiplexing / multiplexing+alignment.
func BenchmarkFig8(b *testing.B) {
	for _, name := range benchCircuits() {
		p, _ := effitest.ProfileByName(name)
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				row, err := effitest.RunFig8(context.Background(), p, benchExpConfig())
				if err != nil {
					b.Fatal(err)
				}
				last = row.Proposed
			}
			b.ReportMetric(last, "iter_per_path")
		})
	}
}

// flowFixture caches the expensive offline preparation per circuit so the
// per-chip benchmarks measure only the online flow.
type flowFixture struct {
	circuit *effitest.Circuit
	eng     *effitest.Engine
}

// withWorkers rebuilds the fixture's engine around its plan and period at
// another worker count.
func (f *flowFixture) withWorkers(b *testing.B, workers int) *effitest.Engine {
	b.Helper()
	eng, err := effitest.New(f.circuit,
		effitest.WithPlan(f.eng.Plan()),
		effitest.WithPeriod(f.eng.Period()),
		effitest.WithWorkers(workers),
	)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

var (
	fixtures   = map[string]*flowFixture{}
	fixturesMu sync.Mutex
)

func fixture(b *testing.B, name string, cfg effitest.Config) *flowFixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	key := name + "/" + cfg.AlignMode.String()
	if f, ok := fixtures[key]; ok {
		return f
	}
	p, ok := effitest.ProfileByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	c, err := effitest.Generate(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := effitest.New(c, effitest.WithConfig(cfg), effitest.WithPeriod(effitest.PeriodQuantile(c, 2, 400, 0.8413)))
	if err != nil {
		b.Fatal(err)
	}
	f := &flowFixture{circuit: c, eng: eng}
	fixtures[key] = f
	return f
}

// BenchmarkFlowChip measures the complete online flow for one manufactured
// chip: aligned delay test, prediction, configuration and final pass/fail.
func BenchmarkFlowChip(b *testing.B) {
	for _, name := range benchCircuits() {
		b.Run(name, func(b *testing.B) {
			f := fixture(b, name, effitest.DefaultConfig())
			chip := effitest.SampleChip(f.circuit, 3, 0)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			iters := 0
			for i := 0; i < b.N; i++ {
				out, err := f.eng.RunChip(ctx, chip)
				if err != nil {
					b.Fatal(err)
				}
				iters = out.Iterations
			}
			b.ReportMetric(float64(iters), "tester_iters")
		})
	}
}

// BenchmarkEngineRunChips measures fleet execution through the engine at
// one worker versus one worker per CPU. The outcomes are bit-identical
// (see TestEngineParallelMatchesSequential); on a multi-core runner the
// parallel case shows the wall-clock speedup the worker pool buys.
func BenchmarkEngineRunChips(b *testing.B) {
	f := fixture(b, "s9234", effitest.DefaultConfig())
	chips := effitest.SampleChips(f.circuit, 3, 64)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers-1", 1}, {"workers-all", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := f.withWorkers(b, bc.workers)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outs, err := eng.RunChipsAll(ctx, chips)
				if err != nil {
					b.Fatal(err)
				}
				if len(outs) != len(chips) {
					b.Fatalf("got %d outcomes", len(outs))
				}
			}
			b.ReportMetric(float64(len(chips))*float64(b.N)/b.Elapsed().Seconds(), "chips/s")
		})
	}
}

// BenchmarkFlowChipBatched measures 32 chips per op on one worker, chip
// at a time through RunChip (k1) versus RunChips, whose scheduler batches
// eight chips per multi-RHS prediction call (k8). Outcomes are
// bit-identical at every width (see the core package's
// TestBatchedPredictionMatchesUnbatched), so the delta isolates what
// streaming each group's Cholesky factor through the cache once per eight
// chips — instead of once per chip — buys, with worker parallelism out of
// the picture.
func BenchmarkFlowChipBatched(b *testing.B) {
	for _, name := range []string{"s9234", "usb_funct"} {
		f := fixture(b, name, effitest.DefaultConfig())
		chips := effitest.SampleChips(f.circuit, 3, 32)
		for _, kb := range []int{1, 8} {
			// kN, not batch-N: `go test -bench` appends -<GOMAXPROCS> to
			// every name, so a trailing -<digits> here would read as it.
			b.Run(fmt.Sprintf("%s/k%d", name, kb), func(b *testing.B) {
				eng := f.withWorkers(b, 1)
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if kb == 1 {
						for _, ch := range chips {
							if _, err := eng.RunChip(ctx, ch); err != nil {
								b.Fatal(err)
							}
						}
						continue
					}
					outs, err := eng.RunChipsAll(ctx, chips)
					if err != nil {
						b.Fatal(err)
					}
					if len(outs) != len(chips) {
						b.Fatalf("got %d outcomes", len(outs))
					}
				}
				b.ReportMetric(float64(len(chips))*float64(b.N)/b.Elapsed().Seconds(), "chips/s")
			})
		}
	}
}

// BenchmarkAblationAlignSolver compares the three §3.3 alignment solvers:
// the default weighted-median heuristic, the exact MILP without the paper's
// binaries, and the faithful big-M ILP of Eqs. (7)–(14). All three produce
// the same test behaviour (the MILPs provably, the heuristic near-optimally)
// at very different compute cost.
func BenchmarkAblationAlignSolver(b *testing.B) {
	modes := []struct {
		name string
		mode effitest.AlignMode
	}{
		{"heuristic", effitest.AlignHeuristic},
		{"fast-milp", effitest.AlignFastMILP},
		{"paper-ilp", effitest.AlignPaperILP},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cfg := effitest.DefaultConfig()
			cfg.AlignMode = m.mode
			f := fixture(b, "s9234", cfg)
			chip := effitest.SampleChip(f.circuit, 3, 0)
			ctx := context.Background()
			b.ResetTimer()
			iters := 0
			for i := 0; i < b.N; i++ {
				out, err := f.eng.RunChip(ctx, chip)
				if err != nil {
					b.Fatal(err)
				}
				iters = out.Iterations
			}
			b.ReportMetric(float64(iters), "tester_iters")
		})
	}
}

// BenchmarkAblationAlignment quantifies what §3.3 buys at test time:
// batched measurement of all paths with buffers frozen vs with delay
// alignment.
func BenchmarkAblationAlignment(b *testing.B) {
	cfgBase := effitest.DefaultConfig()
	f := fixture(b, "s13207", cfgBase)
	all := make([]int, f.circuit.NumPaths())
	for i := range all {
		all[i] = i
	}
	for _, align := range []bool{false, true} {
		name := "frozen"
		if align {
			name = "aligned"
		}
		b.Run(name, func(b *testing.B) {
			chip := effitest.SampleChip(f.circuit, 3, 0)
			iters := 0
			for i := 0; i < b.N; i++ {
				ate := effitest.NewATE(chip, cfgBase.TesterResolution)
				n, _, err := effitest.MultiplexTest(ate, f.circuit, all, effitest.NoHoldBounds, cfgBase, align)
				if err != nil {
					b.Fatal(err)
				}
				iters = n
			}
			b.ReportMetric(float64(iters)/float64(len(all)), "iter_per_path")
		})
	}
}

// BenchmarkAblationSlotFill compares the flow with and without §3.2's
// empty-slot filling.
func BenchmarkAblationSlotFill(b *testing.B) {
	for _, fill := range []bool{true, false} {
		name := "fill"
		if !fill {
			name = "nofill"
		}
		b.Run(name, func(b *testing.B) {
			cfg := effitest.DefaultConfig()
			cfg.FillSlots = fill
			p, _ := effitest.ProfileByName("s13207")
			c, err := effitest.Generate(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := effitest.New(c, effitest.WithConfig(cfg), effitest.WithPeriod(effitest.PeriodQuantile(c, 2, 400, 0.8413)))
			if err != nil {
				b.Fatal(err)
			}
			chip := effitest.SampleChip(c, 3, 0)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunChip(ctx, chip); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(eng.Plan().NumTested()), "npt")
		})
	}
}

// BenchmarkPrepareWarmCache measures constructing an engine when the plan
// cache is already warm: artifact read + decode + fingerprint verification
// + MVN recomputation, instead of the full offline flow. The ratio to
// BenchmarkPrepare is what WithPlanCache buys every process after the
// first.
func BenchmarkPrepareWarmCache(b *testing.B) {
	for _, name := range benchCircuits() {
		b.Run(name, func(b *testing.B) {
			p, _ := effitest.ProfileByName(name)
			c, err := effitest.Generate(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			// Warm the cache (and pin the calibration cost outside the
			// timed region by fixing the period).
			warm, err := effitest.New(c, effitest.WithPlanCache(dir), effitest.WithPeriod(c.TNominal))
			if err != nil {
				b.Fatal(err)
			}
			if warm.PlanCacheHit() {
				b.Fatal("first construction unexpectedly hit the cache")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := effitest.New(c, effitest.WithPlanCache(dir), effitest.WithPeriod(c.TNominal))
				if err != nil {
					b.Fatal(err)
				}
				if !eng.PlanCacheHit() {
					b.Fatal("cache miss on warm cache")
				}
			}
		})
	}
}

// BenchmarkPrepare measures the offline flow (Procedure 1 + multiplexing +
// hold bounds), the paper's Tp column.
func BenchmarkPrepare(b *testing.B) {
	for _, name := range benchCircuits() {
		b.Run(name, func(b *testing.B) {
			p, _ := effitest.ProfileByName(name)
			for i := 0; i < b.N; i++ {
				// Fresh circuit per op: Prepare caches the covariance matrix
				// on the circuit, and Tp should include that cost.
				b.StopTimer()
				c, err := effitest.Generate(p, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := effitest.New(c, effitest.WithPeriod(c.TNominal)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
