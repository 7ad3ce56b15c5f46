// Package buffers models the post-silicon tunable clock buffer device of
// the paper's Figure 1 (the Itanium-style "clock vernier"): a delay line
// whose tap is selected by configuration bits held in scan registers. The
// package provides step/value mapping and scan-chain bit encoding, which the
// tester simulator shifts in together with test vectors — the property that
// lets EffiTest re-tune buffers during test "with no change to the existing
// test platform".
package buffers

import (
	"errors"
	"fmt"
	"math"
)

// Device is one tunable buffer: delay selectable on a uniform lattice of
// Steps+1 values spanning [Lo, Hi].
type Device struct {
	FF    int // flip-flop this buffer drives
	Lo    float64
	Hi    float64
	Steps int
}

// StepSize returns the lattice pitch.
func (d Device) StepSize() float64 {
	if d.Steps <= 0 {
		return 0
	}
	return (d.Hi - d.Lo) / float64(d.Steps)
}

// Value returns the delay of the given step index (clamped to range).
func (d Device) Value(step int) float64 {
	if step < 0 {
		step = 0
	}
	if step > d.Steps {
		step = d.Steps
	}
	return d.Lo + float64(step)*d.StepSize()
}

// StepFor returns the step index whose value is nearest to x.
func (d Device) StepFor(x float64) int {
	s := d.StepSize()
	if s == 0 {
		return 0
	}
	k := int(math.Round((x - d.Lo) / s))
	if k < 0 {
		k = 0
	}
	if k > d.Steps {
		k = d.Steps
	}
	return k
}

// NumBits returns the width of the configuration register (Figure 1 shows
// three registers; the bit budget is ⌈log2(Steps+1)⌉).
func (d Device) NumBits() int {
	if d.Steps <= 0 {
		return 0
	}
	bits := 0
	for v := d.Steps; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// Encode returns the configuration bits (LSB first) for a step index.
func (d Device) Encode(step int) ([]bool, error) {
	if step < 0 || step > d.Steps {
		return nil, fmt.Errorf("buffers: step %d out of range [0, %d]", step, d.Steps)
	}
	bits := make([]bool, d.NumBits())
	for i := range bits {
		bits[i] = step&(1<<i) != 0
	}
	return bits, nil
}

// Decode converts configuration bits (LSB first) back to a step index.
func (d Device) Decode(bits []bool) (int, error) {
	if len(bits) != d.NumBits() {
		return 0, fmt.Errorf("buffers: got %d bits, want %d", len(bits), d.NumBits())
	}
	step := 0
	for i, b := range bits {
		if b {
			step |= 1 << i
		}
	}
	if step > d.Steps {
		return 0, fmt.Errorf("buffers: decoded step %d exceeds %d", step, d.Steps)
	}
	return step, nil
}

// Chain is the scan chain threading every buffer's configuration register,
// in order.
type Chain struct {
	Devices []Device
}

// TotalBits returns the scan-chain length in bits.
func (c Chain) TotalBits() int {
	n := 0
	for _, d := range c.Devices {
		n += d.NumBits()
	}
	return n
}

// Encode serializes one step index per device into the scan bitstream.
func (c Chain) Encode(steps []int) ([]bool, error) {
	if len(steps) != len(c.Devices) {
		return nil, errors.New("buffers: step count mismatch")
	}
	out := make([]bool, 0, c.TotalBits())
	for i, d := range c.Devices {
		bits, err := d.Encode(steps[i])
		if err != nil {
			return nil, err
		}
		out = append(out, bits...)
	}
	return out, nil
}

// Decode deserializes a scan bitstream into per-device step indices.
func (c Chain) Decode(bits []bool) ([]int, error) {
	steps := make([]int, len(c.Devices))
	at := 0
	for i, d := range c.Devices {
		n := d.NumBits()
		if at+n > len(bits) {
			return nil, errors.New("buffers: bitstream too short")
		}
		s, err := d.Decode(bits[at : at+n])
		if err != nil {
			return nil, err
		}
		steps[i] = s
		at += n
	}
	if at != len(bits) {
		return nil, errors.New("buffers: bitstream too long")
	}
	return steps, nil
}
