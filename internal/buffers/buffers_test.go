package buffers

import (
	"math"
	"testing"
	"testing/quick"
)

func dev() Device { return Device{FF: 3, Lo: -0.5, Hi: 0.5, Steps: 20} }

func TestStepValue(t *testing.T) {
	d := dev()
	if s := d.StepSize(); math.Abs(s-0.05) > 1e-12 {
		t.Fatalf("step = %v", s)
	}
	if v := d.Value(0); v != -0.5 {
		t.Fatalf("Value(0) = %v", v)
	}
	if v := d.Value(20); v != 0.5 {
		t.Fatalf("Value(20) = %v", v)
	}
	if v := d.Value(10); math.Abs(v) > 1e-12 {
		t.Fatalf("Value(10) = %v", v)
	}
	// Clamping.
	if d.Value(-3) != d.Value(0) || d.Value(99) != d.Value(20) {
		t.Fatal("Value should clamp")
	}
}

func TestStepForRoundTrip(t *testing.T) {
	d := dev()
	for s := 0; s <= d.Steps; s++ {
		if got := d.StepFor(d.Value(s)); got != s {
			t.Fatalf("StepFor(Value(%d)) = %d", s, got)
		}
	}
	if d.StepFor(-99) != 0 || d.StepFor(99) != d.Steps {
		t.Fatal("StepFor should clamp")
	}
}

func TestZeroStepDevice(t *testing.T) {
	d := Device{Lo: 1, Hi: 1, Steps: 0}
	if d.StepSize() != 0 || d.NumBits() != 0 || d.StepFor(5) != 0 {
		t.Fatal("degenerate device misbehaves")
	}
}

func TestNumBits(t *testing.T) {
	cases := []struct{ steps, bits int }{
		{1, 1}, {2, 2}, {3, 2}, {7, 3}, {8, 4}, {20, 5}, {31, 5}, {32, 6},
	}
	for _, c := range cases {
		d := Device{Steps: c.steps}
		if got := d.NumBits(); got != c.bits {
			t.Errorf("NumBits(steps=%d) = %d, want %d", c.steps, got, c.bits)
		}
	}
}

func TestEncodeDecodeDevice(t *testing.T) {
	d := dev()
	for s := 0; s <= d.Steps; s++ {
		bits, err := d.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Decode(bits)
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("roundtrip %d -> %d", s, got)
		}
	}
	if _, err := d.Encode(-1); err == nil {
		t.Error("negative step should fail")
	}
	if _, err := d.Encode(21); err == nil {
		t.Error("overflow step should fail")
	}
	if _, err := d.Decode([]bool{true}); err == nil {
		t.Error("short bits should fail")
	}
	// Bit pattern 0b10101 = 21 > 20 steps must be rejected.
	if _, err := d.Decode([]bool{true, false, true, false, true}); err == nil {
		t.Error("out-of-range pattern should fail")
	}
}

func TestChainRoundTrip(t *testing.T) {
	ch := Chain{Devices: []Device{
		{FF: 0, Lo: -0.5, Hi: 0.5, Steps: 20},
		{FF: 4, Lo: -0.25, Hi: 0.25, Steps: 10},
		{FF: 9, Lo: 0, Hi: 1, Steps: 4},
	}}
	f := func(a, b, c uint8) bool {
		steps := []int{int(a) % 21, int(b) % 11, int(c) % 5}
		bits, err := ch.Encode(steps)
		if err != nil {
			return false
		}
		if len(bits) != ch.TotalBits() {
			return false
		}
		got, err := ch.Decode(bits)
		if err != nil {
			return false
		}
		for i := range steps {
			if got[i] != steps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChainErrors(t *testing.T) {
	ch := Chain{Devices: []Device{dev()}}
	if _, err := ch.Encode([]int{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := ch.Decode(make([]bool, 2)); err == nil {
		t.Error("short stream should fail")
	}
	if _, err := ch.Decode(make([]bool, 9)); err == nil {
		t.Error("long stream should fail")
	}
}
