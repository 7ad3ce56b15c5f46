package yield

import (
	"context"
	"math"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/core"
	"effitest/internal/tester"
)

func tiny(t *testing.T, seed int64) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Generate(circuit.TinyProfile("yl", 24, 200, 3, 30), seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPeriodQuantileCalibratesBaseYield(t *testing.T) {
	c := tiny(t, 1)
	t1 := PeriodQuantile(c, 9, 600, 0.5)
	chips := tester.SampleChips(c, 10, 600) // different stream
	nb := NoBuffer(chips, t1)
	if math.Abs(nb-0.5) > 0.08 {
		t.Fatalf("yield at median period = %v, want ≈ 0.5", nb)
	}
	t2 := PeriodQuantile(c, 9, 600, 0.8413)
	nb2 := NoBuffer(chips, t2)
	if math.Abs(nb2-0.8413) > 0.07 {
		t.Fatalf("yield at q84 period = %v, want ≈ 0.84", nb2)
	}
	if t2 <= t1 {
		t.Fatal("T2 must exceed T1")
	}
}

func TestIdealBetweenNoBufferAndOne(t *testing.T) {
	c := tiny(t, 2)
	chips := tester.SampleChips(c, 11, 200)
	T := PeriodQuantile(c, 9, 400, 0.5)
	nb := NoBuffer(chips, T)
	id := Ideal(c, chips, T)
	if id < nb {
		t.Fatalf("ideal %v below no-buffer %v — tuning can always do nothing", id, nb)
	}
	if id > 1 {
		t.Fatalf("yield %v above 1", id)
	}
	if id == nb {
		t.Fatal("tuning should rescue at least some chips at the median period")
	}
}

func TestProposedBetweenNoBufferAndIdeal(t *testing.T) {
	c := tiny(t, 3)
	cfg := core.DefaultConfig()
	plan, err := core.Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chips := tester.SampleChips(c, 13, 100)
	T := PeriodQuantile(c, 9, 400, 0.8413)
	st, err := ProposedOpts(t.Context(), plan, chips, T, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id := Ideal(c, chips, T)
	if st.Yield > id+1e-9 {
		t.Fatalf("proposed %v beats ideal %v — impossible", st.Yield, id)
	}
	if st.Yield < id-0.15 {
		t.Fatalf("proposed %v too far below ideal %v", st.Yield, id)
	}
	if st.AvgIterations <= 0 {
		t.Fatal("no iterations recorded")
	}
	if st.ConfiguredFrac < st.Yield-1e-9 {
		t.Fatal("passed chips must have been configured")
	}
}

func TestCurveMonotoneAndOrdered(t *testing.T) {
	c := tiny(t, 5)
	chips := tester.SampleChips(c, 15, 150)
	lo := PeriodQuantile(c, 9, 300, 0.05)
	hi := PeriodQuantile(c, 9, 300, 0.99)
	curve := Curve(c, chips, lo, hi, 8)
	if len(curve) != 8 {
		t.Fatalf("points = %d", len(curve))
	}
	for i, pt := range curve {
		if pt.Ideal < pt.NoBuffer-1e-9 {
			t.Fatalf("point %d: ideal %v below no-buffer %v", i, pt.Ideal, pt.NoBuffer)
		}
		if i > 0 {
			if pt.NoBuffer < curve[i-1].NoBuffer-1e-9 {
				t.Fatalf("no-buffer yield not monotone in T at point %d", i)
			}
			if pt.Ideal < curve[i-1].Ideal-1e-9 {
				t.Fatalf("ideal yield not monotone in T at point %d", i)
			}
		}
	}
	// At the generous end, both should be near 1.
	last := curve[len(curve)-1]
	if last.NoBuffer < 0.9 || last.Ideal < 0.9 {
		t.Fatalf("yields at q99 period too low: %+v", last)
	}
}

func TestEmptyChipList(t *testing.T) {
	c := tiny(t, 4)
	if NoBuffer(nil, 1) != 0 || Ideal(c, nil, 1) != 0 {
		t.Fatal("empty chip list should give 0")
	}
	plan, err := core.Prepare(c, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ProposedOpts(t.Context(), plan, nil, 1, core.RunOptions{})
	if err != nil || st.Yield != 0 {
		t.Fatalf("empty proposed: %v %v", st, err)
	}
}

// BenchmarkPeriodQuantile times period calibration over 500 usb_funct
// chips on one worker.
func BenchmarkPeriodQuantile(b *testing.B) {
	p, _ := circuit.ProfileByName("usb_funct")
	c, err := circuit.Generate(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := PeriodQuantileCtx(context.Background(), c, 1, 500, 0.8413, 1); err != nil {
			b.Fatal(err)
		}
	}
}
