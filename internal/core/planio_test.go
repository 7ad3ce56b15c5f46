package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/tester"
)

// planEqual compares the serializable state of two plans (everything except
// the circuit pointer and derived kernels).
func planEqual(t *testing.T, a, b *Plan) {
	t.Helper()
	if !reflect.DeepEqual(a.Cfg, b.Cfg) {
		t.Fatalf("Cfg differs:\n%+v\n%+v", a.Cfg, b.Cfg)
	}
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("group count %d vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if !reflect.DeepEqual(ga.Paths, gb.Paths) || ga.Threshold != gb.Threshold ||
			ga.NumPCs != gb.NumPCs || !reflect.DeepEqual(ga.Selected, gb.Selected) {
			t.Fatalf("group %d differs", i)
		}
	}
	if !reflect.DeepEqual(a.Tested, b.Tested) || !reflect.DeepEqual(a.Filled, b.Filled) ||
		!reflect.DeepEqual(a.Batches, b.Batches) {
		t.Fatal("tested/filled/batches differ")
	}
	if !reflect.DeepEqual(a.Hold.ByPair, b.Hold.ByPair) {
		t.Fatal("hold bounds differ")
	}
	if a.PrepDuration != b.PrepDuration {
		t.Fatalf("prep duration %v vs %v", a.PrepDuration, b.PrepDuration)
	}
}

func TestPlanBinaryRoundTrip(t *testing.T) {
	c := tinyCircuit(t, 3)
	pl, err := Prepare(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := pl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := &Plan{}
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	planEqual(t, pl, got)
	if got.CircuitHash() == "" {
		t.Fatal("decoded plan lost its circuit hash")
	}
	if err := got.Bind(c); err != nil {
		t.Fatal(err)
	}
	if got.Circuit != c {
		t.Fatal("Bind did not attach the circuit")
	}
}

func TestPlanSaveLoadRunsIdentically(t *testing.T) {
	c := tinyCircuit(t, 3)
	cfg := DefaultConfig()
	pl, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.effiplan")
	if err := SavePlan(path, pl); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlan(path, c)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: a restored plan runs chips bit-identically to the
	// in-memory one.
	td := 1.05 * c.TNominal
	for i := 0; i < 4; i++ {
		ch := tester.SampleChip(c, 21, i)
		a, err := pl.RunChip(t.Context(), ch, td, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.RunChip(t.Context(), ch, td, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Iterations != b.Iterations || a.ScanBits != b.ScanBits ||
			a.Passed != b.Passed || a.Configured != b.Configured || a.Xi != b.Xi ||
			!reflect.DeepEqual(a.X, b.X) ||
			!reflect.DeepEqual(a.Bounds.Lo, b.Bounds.Lo) || !reflect.DeepEqual(a.Bounds.Hi, b.Bounds.Hi) {
			t.Fatalf("chip %d outcome differs between in-memory and loaded plan", i)
		}
	}
}

func TestPlanBindRejectsWrongCircuit(t *testing.T) {
	c := tinyCircuit(t, 3)
	other, err := circuit.Generate(circuit.TinyProfile("bindother", 24, 200, 3, 30), 9)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Prepare(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := pl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := &Plan{}
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if err := got.Bind(other); !errors.Is(err, ErrPlanCircuitMismatch) {
		t.Fatalf("Bind(other) = %v, want ErrPlanCircuitMismatch", err)
	}
}

func TestPlanDecodeRejectsCorruption(t *testing.T) {
	c := tinyCircuit(t, 3)
	pl, err := Prepare(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := pl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(data); n += 7 {
		if err := new(Plan).UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Version skew.
	skew := append([]byte{}, data...)
	skew[len(planMagic)] = PlanFormatVersion + 1
	if err := new(Plan).UnmarshalBinary(skew); !errors.Is(err, ErrPlanVersion) {
		t.Fatalf("version skew = %v, want ErrPlanVersion", err)
	}
	// Wrong magic.
	if err := new(Plan).UnmarshalBinary([]byte("not a plan at all")); !errors.Is(err, ErrPlanFormat) {
		t.Fatalf("bad magic = %v, want ErrPlanFormat", err)
	}
	// Trailing garbage.
	if err := new(Plan).UnmarshalBinary(append(append([]byte{}, data...), 0xFF)); !errors.Is(err, ErrPlanFormat) {
		t.Fatalf("trailing bytes = %v, want ErrPlanFormat", err)
	}
	// An out-of-range path id decodes but must fail Bind's validation.
	bad := &Plan{}
	if err := bad.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	bad.Tested[0] = c.NumPaths() + 5
	if err := bad.Bind(c); !errors.Is(err, ErrPlanFormat) {
		t.Fatalf("out-of-range path id Bind = %v, want ErrPlanFormat", err)
	}
}

func TestPlanCacheHitSkipsPrepare(t *testing.T) {
	c := tinyCircuit(t, 3)
	cfg := DefaultConfig()
	pc, err := NewPlanCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	if pl, err := pc.Get(c, cfg); err != nil || pl != nil {
		t.Fatalf("cold Get = (%v, %v), want miss", pl, err)
	}
	pl, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Put(pl); err != nil {
		t.Fatal(err)
	}

	// Warm hit, including with a different worker count (excluded from the
	// key but adopted from the live request).
	warmCfg := cfg
	warmCfg.Workers = 7
	warm, err := pc.Get(c, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm == nil {
		t.Fatal("warm Get missed")
	}
	if warm.Cfg.Workers != 7 {
		t.Fatalf("cached plan Workers = %d, want the live request's 7", warm.Cfg.Workers)
	}
	td := 1.05 * c.TNominal
	ch := tester.SampleChip(c, 5, 0)
	a, err := pl.RunChip(t.Context(), ch, td, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.RunChip(t.Context(), ch, td, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || a.Passed != b.Passed || !reflect.DeepEqual(a.X, b.X) {
		t.Fatal("cached plan ran differently")
	}

	// A different config must miss.
	cfg2 := cfg
	cfg2.Eps = cfg.Eps * 2
	if pl2, err := pc.Get(c, cfg2); err != nil || pl2 != nil {
		t.Fatalf("different-config Get = (%v, %v), want miss", pl2, err)
	}
}

func TestPrepareCtxCancellation(t *testing.T) {
	c := tinyCircuit(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrepareCtx(ctx, c, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("PrepareCtx(cancelled) = %v, want context.Canceled", err)
	}
}
