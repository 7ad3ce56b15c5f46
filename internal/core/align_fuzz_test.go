package core

import (
	"math"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/rng"
)

// offLatticeHi nudges every buffer's Hi up by ulps until the top lattice
// value Lo + Steps·step misses it, so a cold solve's Hi restarts start off
// the lattice.
func offLatticeHi(c *circuit.Circuit) {
	for _, f := range c.Buffered {
		for c.Buf.Lo[f]+float64(c.Buf.Steps)*c.Buf.StepSize(f) == c.Buf.Hi[f] {
			c.Buf.Hi[f] = math.Nextafter(c.Buf.Hi[f], math.Inf(1))
		}
	}
}

// alignFuzzBatch decodes an alignment batch over c from data: 1–24 items
// whose endpoints lean to buffered FFs, windows near the paths' delays
// within a few lattice steps, integer, unit or fractional weights, hold
// bounds on a lattice-step grid (negative, zero, pinning or unreachable),
// and a nil, on-lattice or off-lattice warm start. Exhausted data reads as
// zeros.
func alignFuzzBatch(c *circuit.Circuit, data []byte) ([]alignItem, []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	ff := func() int {
		b := int(next())
		if b&1 == 1 {
			return c.Buffered[(b>>1)%len(c.Buffered)]
		}
		return (b >> 1) % c.NumFF
	}
	step := c.Buf.StepSize(c.Buffered[0])
	items := make([]alignItem, 1+int(next())%24)
	for i := range items {
		pt := &c.Paths[int(next())%c.NumPaths()]
		it := alignItem{path: pt.ID, from: ff(), to: ff(), lambda: math.Inf(-1)}
		it.lo = pt.Max.Mean + float64(int8(next()))*step/4
		it.hi = it.lo + float64(next())*step/16
		switch next() % 4 {
		case 0:
			it.weight = float64(1 + int(next()))
		case 1:
			it.weight = 1
		case 2:
			it.weight = 1 + float64(next())/7
		default:
			it.weight = 5
		}
		if b := next(); b%4 == 0 {
			it.lambda = float64(int8(b)/4%24) * step
		}
		items[i] = it
	}
	mode := next() % 4
	if mode == 0 {
		return items, nil
	}
	prev := make([]float64, c.NumFF)
	for f := range prev {
		switch {
		case !c.Buf.Buffered[f]:
			if mode == 3 {
				prev[f] = float64(int8(next())) * step / 4
			}
		case mode == 1:
			prev[f] = c.Buf.Lo[f] + float64(int(next())%(c.Buf.Steps+1))*c.Buf.StepSize(f)
		default:
			prev[f] = c.Buf.Lo[f] + (c.Buf.Hi[f]-c.Buf.Lo[f])*float64(next())/255
		}
	}
	return items, prev
}

// FuzzAlignHeuristicOracle requires alignHeuristic, early exits included,
// to equal the full-scan oracle bit for bit on batches decoded from the
// fuzz bytes, over a six-buffer circuit and a copy whose Hi values miss
// the lattice. The first byte picks the circuit.
func FuzzAlignHeuristicOracle(f *testing.F) {
	var circuits [2]*circuit.Circuit
	for i := range circuits {
		c, err := tinyCircuitErr(24, 200, 6, 30, 3)
		if err != nil {
			f.Fatal(err)
		}
		circuits[i] = c
	}
	offLatticeHi(circuits[1])
	r := rng.New(13, "alignfuzz")
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+r.Intn(256))
		r.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := circuits[0]
		if len(data) > 0 {
			c = circuits[data[0]%2]
			data = data[1:]
		}
		items, prev := alignFuzzBatch(c, data)
		var scr alignScratch
		requireSameAlign(t, "fuzz batch", alignHeuristic(c, items, prev, &scr), oracleAlignHeuristic(c, items, prev))
	})
}
