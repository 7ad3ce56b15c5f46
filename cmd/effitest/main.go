// Command effitest runs the full EffiTest flow on one benchmark circuit and
// prints Table-1-style cost metrics plus yield for the chosen clock period.
// Chips execute in parallel on a bounded worker pool; Ctrl-C cancels the
// run promptly.
//
// Usage:
//
//	effitest -circuit s9234 -chips 100 -seed 1 -quantile 0.8413 -workers 0
//
// The expensive offline Prepare can be amortized across invocations:
//
//	effitest -circuit s9234 -plan-cache /var/cache/effitest   # 2nd run skips Prepare
//	effitest -circuit s9234 -save-plan s9234.effiplan         # export the artifact
//	effitest -circuit s9234 -load-plan s9234.effiplan         # run from the artifact
//
// Profile a run with the standard pprof flags:
//
//	effitest -circuit s38584 -chips 50 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"effitest"
)

func main() {
	var (
		name       = flag.String("circuit", "s9234", "benchmark circuit (see -list)")
		list       = flag.Bool("list", false, "list available benchmark circuits and exit")
		seed       = flag.Int64("seed", 1, "master random seed")
		chips      = flag.Int("chips", 100, "number of simulated chips")
		quantile   = flag.Float64("quantile", 0.8413, "clock period as a quantile of the no-tuning critical delay (0.8413 = paper's T2)")
		qchips     = flag.Int("quantile-chips", 2000, "Monte-Carlo chips for the period quantile")
		align      = flag.String("align", "heuristic", "alignment solver: heuristic | fast-milp | paper-ilp | off")
		eps        = flag.Float64("eps", 0, "delay-range termination threshold in ns (0 = default 0.002)")
		workers    = flag.Int("workers", 0, "worker goroutines for chip execution (0 = all CPUs, 1 = sequential)")
		cacheDir   = flag.String("plan-cache", "", "content-addressed plan cache directory (skips Prepare on a warm hit)")
		savePlan   = flag.String("save-plan", "", "write the prepared plan's binary artifact to this path")
		loadPlan   = flag.String("load-plan", "", "load the plan from this artifact instead of running Prepare")
		progress   = flag.Bool("progress", false, "print per-chip/batch progress to stderr while the fleet runs")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	// Profile cleanups run through runCleanups, not bare defers: fatal()
	// exits with os.Exit, which would skip defers and leave a footerless
	// CPU profile — useless exactly when a failing run is being profiled.
	defer runCleanups()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		cleanups = append(cleanups, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memProfile != "" {
		path := *memProfile
		cleanups = append(cleanups, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "effitest:", err)
				return
			}
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "effitest:", err)
			}
			f.Close()
		})
	}

	if *list {
		for _, p := range effitest.Profiles() {
			fmt.Printf("%-14s ns=%-5d ng=%-6d nb=%-3d np=%d\n", p.Name, p.NumFF, p.NumGates, p.NumBuffers, p.NumPaths)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	profile, ok := effitest.ProfileByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown circuit %q; use -list\n", *name)
		os.Exit(1)
	}

	opts := []effitest.Option{
		effitest.WithSeed(*seed),
		effitest.WithWorkers(*workers),
		effitest.WithPeriodQuantile(*quantile, *qchips),
	}
	if *progress {
		opts = append(opts, effitest.WithObserver(effitest.NewProgressPrinter(os.Stderr)))
	}
	if *eps > 0 {
		opts = append(opts, effitest.WithEpsilon(*eps))
	}
	switch strings.ToLower(*align) {
	case "heuristic":
		opts = append(opts, effitest.WithAlignMode(effitest.AlignHeuristic))
	case "fast-milp":
		opts = append(opts, effitest.WithAlignMode(effitest.AlignFastMILP))
	case "paper-ilp":
		opts = append(opts, effitest.WithAlignMode(effitest.AlignPaperILP))
	case "off":
		opts = append(opts, effitest.WithAlignMode(effitest.AlignOff))
	default:
		fmt.Fprintf(os.Stderr, "unknown align mode %q\n", *align)
		os.Exit(1)
	}

	c, err := effitest.Generate(profile, *seed)
	fatal(err)
	fmt.Printf("circuit %s: ns=%d ng=%d nb=%d np=%d  Tnominal=%.4f ns\n",
		c.Name, c.NumFF, c.NumGates(), c.NumBuffers(), c.NumPaths(), c.TNominal)

	if *cacheDir != "" {
		opts = append(opts, effitest.WithPlanCache(*cacheDir))
	}
	if *loadPlan != "" {
		pl, err := effitest.LoadPlan(*loadPlan, c)
		fatal(err)
		opts = append(opts, effitest.WithPlan(pl))
	}

	eng, err := effitest.NewCtx(ctx, c, opts...)
	fatal(err)
	plan := eng.Plan()
	switch {
	case *loadPlan != "":
		fmt.Printf("offline: plan loaded from %s (Prepare skipped)\n", *loadPlan)
	case eng.PlanCacheHit():
		fmt.Printf("offline: plan cache hit in %s (Prepare skipped)\n", *cacheDir)
	case *cacheDir != "":
		fmt.Printf("offline: plan cache miss; prepared and stored in %s\n", *cacheDir)
	}
	fmt.Printf("offline: npt=%d (%.1f%% of np), %d groups, %d batches, Tp=%.2fs\n",
		plan.NumTested(), 100*float64(plan.NumTested())/float64(c.NumPaths()),
		len(plan.Groups), len(plan.Batches), plan.PrepDuration.Seconds())
	if *savePlan != "" {
		fatal(effitest.SavePlan(*savePlan, plan))
		fmt.Printf("offline: plan artifact written to %s\n", *savePlan)
	}
	fmt.Printf("test period Td=%.4f ns (q%.4g of the no-tuning critical delay)\n", eng.Period(), *quantile)

	allChips, err := eng.SampleChips(ctx, *seed+2000, *chips)
	fatal(err)
	st, err := eng.Yield(ctx, allChips)
	fatal(err)

	noBuf := effitest.YieldNoBuffer(allChips, eng.Period())
	ideal := effitest.YieldIdeal(c, allChips, eng.Period())
	fmt.Printf("\nper-chip test cost: ta=%.1f iterations (tv=%.2f per tested path)\n",
		st.AvgIterations, st.AvgIterations/float64(plan.NumTested()))
	fmt.Printf("runtimes: Tt=%.4fs (alignment)  Ts=%.4fs (configuration)\n",
		st.AvgAlignTime.Seconds(), st.AvgConfigTime.Seconds())
	fmt.Printf("\nyield over %d chips at Td:\n", *chips)
	fmt.Printf("  without buffers:        %6.2f%%\n", 100*noBuf)
	fmt.Printf("  proposed (EffiTest):    %6.2f%%  (%.0f%% of chips configured)\n", 100*st.Yield, 100*st.ConfiguredFrac)
	fmt.Printf("  ideal measurement:      %6.2f%%\n", 100*ideal)
	fmt.Printf("  yield drop vs ideal:    %6.2f%%\n", 100*(ideal-st.Yield))
}

// cleanups holds the profile flushes that must run on every exit path;
// runCleanups is idempotent so both the normal defer and fatal's error
// path may call it.
var (
	cleanups    []func()
	cleanupOnce sync.Once
)

func runCleanups() {
	cleanupOnce.Do(func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	})
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "effitest:", err)
		runCleanups()
		os.Exit(1)
	}
}
