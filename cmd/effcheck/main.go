// Command effcheck runs the golden-corpus conformance suite standalone: it
// executes the scenario matrix (circuits × alignment modes × ε × seeds plus
// the experiment runners in reduced-sample mode), diffs each canonical
// snapshot against testdata/golden/ with per-field tolerances, checks the
// paper's structural invariants on the live outcomes, and compares the
// experiment scenarios against the paper's published values within wide
// tolerance bands.
//
// Usage:
//
//	effcheck                  # run everything, pass/fail table, exit 1 on failure
//	effcheck -short           # skip the heavy (Table-1 circuit) scenarios
//	effcheck -filter tiny64   # run matching scenarios only
//	effcheck -update          # regenerate the golden corpus
//	effcheck -v               # print every out-of-tolerance field
//
// Run it from the repository root (or point -golden at the corpus).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"effitest"
	"effitest/internal/conformance"
)

// timingCollector accumulates the per-chip solver runtime components from
// the flow's typed events: Tt (alignment solves, AlignSolveEvent) and Tp
// (statistical prediction, PredictEvent). Chips run concurrently, so the
// sums are mutex-guarded as the Observer contract requires.
type timingCollector struct {
	mu      sync.Mutex
	align   time.Duration
	predict time.Duration
}

func (tc *timingCollector) Observe(e effitest.Event) {
	switch ev := e.(type) {
	case effitest.AlignSolveEvent:
		tc.mu.Lock()
		tc.align += ev.Duration
		tc.mu.Unlock()
	case effitest.PredictEvent:
		tc.mu.Lock()
		tc.predict += ev.Duration
		tc.mu.Unlock()
	}
}

// cols formats the Tt/Tp table cells in milliseconds.
func (tc *timingCollector) cols() (string, string) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1e3) }
	return ms(tc.align), ms(tc.predict)
}

func main() {
	var (
		goldenDir = flag.String("golden", "testdata/golden", "golden corpus directory")
		update    = flag.Bool("update", false, "regenerate golden files instead of diffing")
		short     = flag.Bool("short", false, "skip heavy scenarios (Table-1 circuits, experiment runners)")
		filter    = flag.String("filter", "", "run only scenarios whose name contains this substring")
		verbose   = flag.Bool("v", false, "print every out-of-tolerance field (default: first 8 per scenario)")
		planCache = flag.String("plan-cache", "", "plan cache directory for pipeline scenarios (2nd invocation skips Prepare)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var ran, passed, failed, skipped int
	var bandRows []string
	bandFailed := false

	// Tt/Tp are the paper's per-chip solver runtime components, summed over
	// the scenario's fleet: alignment solves and statistical prediction.
	fmt.Printf("%-45s %-8s %9s %9s  %s\n", "SCENARIO", "STATUS", "Tt(ms)", "Tp(ms)", "NOTE")
	for _, sc := range conformance.DefaultMatrix() {
		name := sc.Name()
		if *filter != "" && !strings.Contains(name, *filter) {
			continue
		}
		if *short && sc.Heavy {
			skipped++
			fmt.Printf("%-45s %-8s %9s %9s  %s\n", name, "skip", "-", "-", "heavy scenario (-short)")
			continue
		}
		sc.PlanCache = *planCache
		tt, tp := "-", "-"
		var tc *timingCollector
		switch sc.Kind {
		case conformance.KindPipeline, conformance.KindBinning, conformance.KindAging:
			tc = &timingCollector{}
			sc.Observer = tc
		}
		ran++
		snap, note, ok := runScenario(ctx, sc, *goldenDir, *update, *verbose)
		if tc != nil {
			tt, tp = tc.cols()
		}
		status := "ok"
		if !ok {
			status = "FAIL"
			failed++
		} else {
			passed++
		}
		if *update && ok {
			status = "updated"
		}
		fmt.Printf("%-45s %-8s %9s %9s  %s\n", name, status, tt, tp, note)
		if snap != nil {
			for _, b := range conformance.PaperBands(snap) {
				bandRows = append(bandRows, b.String())
				if !b.OK() {
					bandFailed = true
				}
			}
		}
	}

	if len(bandRows) > 0 {
		fmt.Printf("\nPAPER TOLERANCE BANDS (reduced-sample mode)\n")
		fmt.Printf("%-22s %10s %10s   %-8s %s\n", "METRIC", "MEASURED", "PAPER", "BAND", "STATUS")
		for _, r := range bandRows {
			fmt.Println(r)
		}
	}

	fmt.Printf("\n%d scenarios run: %d ok, %d failed, %d skipped\n", ran, passed, failed, skipped)
	if failed > 0 || bandFailed {
		os.Exit(1)
	}
}

// runScenario executes one scenario: snapshot, invariant checks, golden
// diff (or regeneration). It returns the computed snapshot, a one-line
// note, and pass/fail.
func runScenario(ctx context.Context, sc conformance.Scenario, goldenDir string, update, verbose bool) (*conformance.Snapshot, string, bool) {
	var snap *conformance.Snapshot
	var violations []string
	var cacheNote string
	if sc.Kind == conformance.KindPipeline || sc.Kind == conformance.KindBinning {
		res, err := conformance.RunPipeline(ctx, sc)
		if err != nil {
			return nil, err.Error(), false
		}
		if res.Engine.PlanCacheHit() {
			cacheNote = "plan cache hit (Prepare skipped); "
		} else if sc.PlanCache != "" {
			cacheNote = "plan cache warmed; "
		}
		snap = res.Snap
		violations = conformance.PlanViolations(res.Engine.Plan())
		for i, out := range res.Outs {
			for _, v := range conformance.OutcomeViolations(res.Engine.Plan(), out) {
				violations = append(violations, fmt.Sprintf("chip %d: %s", i, v))
			}
		}
	} else {
		var err error
		snap, err = conformance.Run(ctx, sc)
		if err != nil {
			return nil, err.Error(), false
		}
	}
	if len(violations) > 0 {
		printBlock("invariant violations", violations, verbose)
		return snap, fmt.Sprintf("%d invariant violations", len(violations)), false
	}

	path := conformance.GoldenPath(goldenDir, sc)
	if update {
		if err := snap.WriteFile(path); err != nil {
			return snap, err.Error(), false
		}
		return snap, cacheNote + "golden written", true
	}
	want, err := conformance.LoadSnapshot(path)
	if err != nil {
		return snap, fmt.Sprintf("missing golden (%v); run with -update", err), false
	}
	diffs := conformance.Diff(snap, want)
	if len(diffs) == 0 {
		return snap, strings.TrimSuffix(cacheNote, "; "), true
	}
	shown := diffs
	if !verbose && len(shown) > 8 {
		shown = shown[:8]
	}
	fmt.Print(conformance.FormatDiffs(shown))
	if len(shown) < len(diffs) {
		fmt.Printf("  ... %d more fields (rerun with -v)\n", len(diffs)-len(shown))
	}
	return snap, fmt.Sprintf("%d fields out of tolerance", len(diffs)), false
}

func printBlock(header string, lines []string, verbose bool) {
	fmt.Printf("  %s:\n", header)
	if !verbose && len(lines) > 8 {
		lines = lines[:8]
	}
	for _, l := range lines {
		fmt.Printf("    %s\n", l)
	}
}
