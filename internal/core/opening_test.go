package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/tester"
)

// withoutOpening returns a shallow copy of pl with its baked opening solves
// cleared: every batch's first alignment solve then runs live.
func withoutOpening(pl *Plan) *Plan {
	cp := *pl
	cp.opening = nil
	return &cp
}

// outcomeBitsDiff names the first field in which two chip outcomes differ,
// comparing floats bit for bit, or returns "" when they agree. Wall-clock
// durations are not compared.
func outcomeBitsDiff(a, b *ChipOutcome) string {
	sameBits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	switch {
	case a.Iterations != b.Iterations:
		return "Iterations"
	case a.ScanBits != b.ScanBits:
		return "ScanBits"
	case a.Configured != b.Configured:
		return "Configured"
	case a.Passed != b.Passed:
		return "Passed"
	case math.Float64bits(a.Xi) != math.Float64bits(b.Xi):
		return "Xi"
	case !sameBits(a.X, b.X):
		return "X"
	case !sameBits(a.Bounds.Lo, b.Bounds.Lo):
		return "Bounds.Lo"
	case !sameBits(a.Bounds.Hi, b.Bounds.Hi):
		return "Bounds.Hi"
	}
	return ""
}

// openingCircuit generates a named Table-1 profile, or the tiny64 profile
// the benchmark's daemon workloads use.
func openingCircuit(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	p, ok := circuit.ProfileByName(name)
	if name == "tiny64" {
		p, ok = circuit.TinyProfile("tiny64", 64, 640, 6, 72), true
	}
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	c, err := circuit.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOpeningSolveMemoMatchesLive runs the same chips on a plan and on a
// shallow copy with its opening solves cleared, at 1, 2 and 8 workers:
// every outcome must agree bit for bit. Workers share the plan's memo, so
// the test also runs under the race detector at several GOMAXPROCS values.
func TestOpeningSolveMemoMatchesLive(t *testing.T) {
	names := []string{"tiny64", "s9234", "usb_funct"}
	if !testing.Short() {
		names = append(names, "pci_bridge32")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			c := openingCircuit(t, name)
			pl, err := Prepare(c, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if slices.IndexFunc(pl.opening, func(m *openingSolve) bool { return m != nil }) < 0 {
				t.Fatal("Prepare baked no opening solve")
			}
			chips := tester.SampleChips(c, 21, 6)
			want, err := withoutOpening(pl).RunChipsAll(t.Context(), chips, c.TNominal, 1, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := pl.RunChipsAll(t.Context(), chips, c.TNominal, workers, RunOptions{})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for i := range chips {
					if d := outcomeBitsDiff(got[i], want[i]); d != "" {
						t.Fatalf("workers=%d chip %d: %s differs from the live solve", workers, i, d)
					}
				}
			}
		})
	}
}

// TestOpeningSolveMemoHits proves the memo is served: a chip on the plan
// makes exactly the opening solves' probes fewer than the same chip on a
// copy without them, and reports the same number of solves.
func TestOpeningSolveMemoHits(t *testing.T) {
	for _, name := range []string{"tiny64", "s9234", "usb_funct"} {
		t.Run(name, func(t *testing.T) {
			c := openingCircuit(t, name)
			pl, err := Prepare(c, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			baked := 0
			for _, m := range pl.opening {
				if m == nil {
					continue
				}
				var al alignScratch
				if _, err := alignSolve(t.Context(), c, slices.Clone(m.items), nil, pl.Cfg, &al); err != nil {
					t.Fatal(err)
				}
				baked += al.probes
			}
			if baked == 0 {
				t.Fatal("the opening solves make no probes: nothing to save")
			}
			ch := tester.SampleChip(c, 5, 0)
			run := func(p *Plan) (probes, solves int) {
				scr := p.newChipScratch()
				count := ObserverFunc(func(e Event) {
					if _, ok := e.(AlignSolveEvent); ok {
						solves++
					}
				})
				if _, err := p.runChip(t.Context(), ch, c.TNominal, RunOptions{Observer: count}, scr); err != nil {
					t.Fatal(err)
				}
				return scr.al.probes, solves
			}
			memoProbes, memoSolves := run(pl)
			liveProbes, liveSolves := run(withoutOpening(pl))
			if liveProbes-memoProbes != baked {
				t.Fatalf("memo saved %d probes (live %d, memo %d), want the opening solves' %d",
					liveProbes-memoProbes, liveProbes, memoProbes, baked)
			}
			if memoSolves != liveSolves {
				t.Fatalf("memo chip reports %d solves, live chip %d", memoSolves, liveSolves)
			}
		})
	}
}

// TestOpeningSolveMemoMisses covers the first solves the memo must not
// serve. A plan whose hold bounds were edited after Prepare, a shallow copy
// with other weights and a shallow copy with alignment off must each solve
// live: their outcomes equal a copy without the memo, and they make as many
// probes. The exact modes bake nothing at all.
func TestOpeningSolveMemoMisses(t *testing.T) {
	c := openingCircuit(t, "tiny64")
	prepare := func() *Plan {
		pl, err := Prepare(c, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	held := prepare()
	for pair := range held.Hold.ByPair {
		held.Hold.ByPair[pair] -= 0.001
	}
	base := prepare()
	weighted, off := *base, *base
	weighted.Cfg.WeightK0 = 400
	off.Cfg.AlignMode = AlignOff

	chips := tester.SampleChips(c, 33, 4)
	for _, tc := range []struct {
		name string
		pl   *Plan
	}{{"hold-edited", held}, {"weights", &weighted}, {"align-off", &off}} {
		t.Run(tc.name, func(t *testing.T) {
			live := withoutOpening(tc.pl)
			for i, ch := range chips {
				memoScr, liveScr := tc.pl.newChipScratch(), live.newChipScratch()
				got, err := tc.pl.runChip(t.Context(), ch, c.TNominal, RunOptions{}, memoScr)
				if err != nil {
					t.Fatal(err)
				}
				want, err := live.runChip(t.Context(), ch, c.TNominal, RunOptions{}, liveScr)
				if err != nil {
					t.Fatal(err)
				}
				if d := outcomeBitsDiff(got, want); d != "" {
					t.Fatalf("chip %d: %s differs from the live solve", i, d)
				}
				if memoScr.al.probes != liveScr.al.probes {
					t.Fatalf("chip %d: %d probes with the memo, %d live: a stale opening solve was served",
						i, memoScr.al.probes, liveScr.al.probes)
				}
			}
		})
	}

	for _, mode := range []AlignMode{AlignFastMILP, AlignPaperILP} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.AlignMode = mode
			pl, err := Prepare(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pl.opening != nil {
				t.Fatalf("%v plan baked opening solves; the exact modes solve live", mode)
			}
		})
	}
}
