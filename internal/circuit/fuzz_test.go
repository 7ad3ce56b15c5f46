package circuit

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// validNetlistSeed serializes a small generated circuit, giving the fuzzer
// a structurally valid starting point to mutate.
func validNetlistSeed(tb testing.TB) []byte {
	tb.Helper()
	c, err := Generate(TinyProfile("fuzzseed", 12, 120, 2, 14), 1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseNetlist feeds arbitrary bytes to the netlist parser. The parser
// must never panic, hang or allocate unboundedly; whenever it accepts an
// input, the resulting circuit must be internally valid and must survive a
// write→parse round trip unchanged (the format's documented contract).
func FuzzParseNetlist(f *testing.F) {
	f.Add(validNetlistSeed(f))
	f.Add([]byte(""))
	f.Add([]byte("effitest-netlist v1\nend\n"))
	f.Add([]byte("effitest-netlist v1\nffs\n"))         // truncated directive
	f.Add([]byte("effitest-netlist v1\nffs -5\nend\n")) // negative count
	f.Add([]byte("effitest-netlist v1\nffs 99999999999999999999\nend\n"))
	f.Add([]byte("effitest-netlist v1\ncircuit x\nffs 4\nsetup NaN\nend\n"))
	f.Add([]byte("effitest-netlist v1\nvariation 9000000 9000000 .1 .1 .1 .2 1 .5 .4 .7 .03\nend\n"))
	f.Add([]byte("effitest-netlist v1\nbuffer 0 0.5 -0.5 8\nend\n"))
	f.Add([]byte("# comment\n\neffitest-netlist v1\ngate 0 1 2\nend\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseNetlist(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parser accepted an invalid circuit: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteNetlist(&buf, c); err != nil {
			t.Fatalf("accepted circuit does not serialize: %v", err)
		}
		c2, err := ParseNetlist(&buf)
		if err != nil {
			t.Fatalf("serialized form does not re-parse: %v\n%s", err, truncate(buf.String(), 2000))
		}
		requireEqualCircuits(t, c, c2)
	})
}

// FuzzNetlistRoundTrip drives the generator across its parameter space and
// asserts the full-fidelity contract WriteNetlist→ParseNetlist: identical
// structure and bit-identical canonical delay statistics.
func FuzzNetlistRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(2), uint8(14))
	f.Add(int64(7), uint8(40), uint8(5), uint8(48))
	f.Add(int64(42), uint8(3), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, ffs, bufs, paths uint8) {
		// Clamp to profiles the generator documents as valid; the point
		// here is round-trip fidelity, not generator input validation.
		nf := 2 + int(ffs)%200
		nb := 1 + int(bufs)%(nf-1)
		np := 1 + int(paths)
		p := TinyProfile("rt", nf, 10*np+2*nf, nb, np)
		c, err := Generate(p, seed)
		if err != nil {
			t.Skipf("generator rejected profile %+v: %v", p, err)
		}
		var buf bytes.Buffer
		if err := WriteNetlist(&buf, c); err != nil {
			t.Fatal(err)
		}
		c2, err := ParseNetlist(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		requireEqualCircuits(t, c, c2)
	})
}

// requireEqualCircuits asserts structural identity plus bit-identical
// per-path delay statistics (mean and sigma of both canonical forms).
func requireEqualCircuits(t *testing.T, a, b *Circuit) {
	t.Helper()
	if a.Name != b.Name || a.NumFF != b.NumFF || len(a.Gates) != len(b.Gates) ||
		len(a.Paths) != len(b.Paths) || len(a.Buffered) != len(b.Buffered) ||
		len(a.Exclusive) != len(b.Exclusive) {
		t.Fatalf("round trip changed structure: %s/%d/%d/%d vs %s/%d/%d/%d",
			a.Name, a.NumFF, len(a.Gates), len(a.Paths),
			b.Name, b.NumFF, len(b.Gates), len(b.Paths))
	}
	if a.SetupTime != b.SetupTime || a.HoldTime != b.HoldTime || a.TNominal != b.TNominal {
		t.Fatal("round trip changed timing constants")
	}
	for i := range a.Paths {
		pa, pb := &a.Paths[i], &b.Paths[i]
		if pa.From != pb.From || pa.To != pb.To || pa.Cluster != pb.Cluster {
			t.Fatalf("path %d endpoints changed", i)
		}
		if pa.Max.Mean != pb.Max.Mean || pa.Min.Mean != pb.Min.Mean {
			t.Fatalf("path %d canonical means changed: %v/%v vs %v/%v",
				i, pa.Max.Mean, pa.Min.Mean, pb.Max.Mean, pb.Min.Mean)
		}
		if sa, sb := pa.Max.Sigma(), pb.Max.Sigma(); sa != sb && !(math.IsNaN(sa) && math.IsNaN(sb)) {
			t.Fatalf("path %d sigma changed: %v vs %v", i, sa, sb)
		}
	}
	for i := range a.Buffered {
		fa := a.Buffered[i]
		if fa != b.Buffered[i] {
			t.Fatalf("buffer placement changed at %d", i)
		}
		if a.Buf.Lo[fa] != b.Buf.Lo[fa] || a.Buf.Hi[fa] != b.Buf.Hi[fa] {
			t.Fatalf("buffer range changed at FF %d", fa)
		}
	}
	if a.Buf.Steps != b.Buf.Steps {
		t.Fatalf("buffer lattice changed: %d steps vs %d", a.Buf.Steps, b.Buf.Steps)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// Netlists that are valid except for one line. The first two differ in
// their buffer lattices: one whose buffers have no steps, and one whose two
// buffers disagree on the step count. A circuit has one lattice, shared by
// every buffer. The third has no circuit line, so its circuit would have no
// name for WriteNetlist to write.
const (
	zeroStepsNetlist = "effitest-netlist v1\ncircuit lattice\nffs 4\nsetup 0.02\nhold 0.02\ntnominal 1\n" +
		"variation 2 2 .1 .1 .1 .25 1.2 .5 .4 .7 .03\n" +
		"buffer 0 -0.06 0.06 0\nbuffer 2 -0.06 0.06 0\n" +
		"gate 0 0 0 0.5\ngate 1 1 1 0.5\npath 0 1 0 0 0.4 0\npath 1 3 2 0 0.4 1\nend\n"
	mixedStepsNetlist = "effitest-netlist v1\ncircuit lattice\nffs 4\nsetup 0.02\nhold 0.02\ntnominal 1\n" +
		"variation 2 2 .1 .1 .1 .25 1.2 .5 .4 .7 .03\n" +
		"buffer 0 -0.06 0.06 7\nbuffer 2 -0.06 0.06 20\n" +
		"gate 0 0 0 0.5\ngate 1 1 1 0.5\npath 0 1 0 0 0.4 0\npath 1 3 2 0 0.4 1\nend\n"
	noCircuitLineNetlist = "effitest-netlist v1\nffs 4\nsetup 0.02\nhold 0.02\ntnominal 1\n" +
		"variation 2 2 .1 .1 .1 .25 1.2 .5 .4 .7 .03\n" +
		"buffer 0 -0.06 0.06 20\nbuffer 2 -0.06 0.06 20\n" +
		"gate 0 0 0 0.5\ngate 1 1 1 0.5\npath 0 1 0 0 0.4 0\npath 1 3 2 0 0.4 1\nend\n"
)

// TestParseNetlistRejectsHostileInputs pins the parser hardening the
// fuzzer drove: every one of these previously panicked (index out of
// range, negative make) or allocated unboundedly, except the lattice
// cases, which parsed into circuits the tester realized on a lattice the
// solvers did not use.
func TestParseNetlistRejectsHostileInputs(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"truncated-ffs", "effitest-netlist v1\nffs\n"},
		{"truncated-setup", "effitest-netlist v1\nsetup\n"},
		{"truncated-circuit", "effitest-netlist v1\ncircuit\n"},
		{"negative-ffs", "effitest-netlist v1\nffs -5\nend\n"},
		{"huge-ffs", "effitest-netlist v1\nffs 10000000000\nend\n"},
		{"huge-grid", "effitest-netlist v1\nffs 4\nvariation 100000 100000 .1 .1 .1 .25 1.2 .5 .4 .7 .03\nend\n"},
		{"overflow-grid", "effitest-netlist v1\nffs 4\nvariation 4294967296 4294967296 .1 .1 .1 .25 1.2 .5 .4 .7 .03\ngate 0 0 0 0.1\nend\n"},
		{"nan-setup", "effitest-netlist v1\nffs 4\nsetup NaN\nend\n"},
		{"inf-tnominal", "effitest-netlist v1\nffs 4\ntnominal +Inf\nend\n"},
		{"nan-variation", "effitest-netlist v1\nffs 4\nvariation 4 4 NaN .1 .1 .25 1.2 .5 .4 .7 .03\nend\n"},
		{"zero-decay", "effitest-netlist v1\nffs 4\nvariation 4 4 .1 .1 .1 .25 0 .5 .4 .7 .03\nend\n"},
		{"inverted-buffer", "effitest-netlist v1\nffs 4\nbuffer 0 0.5 -0.5 8\nend\n"},
		{"negative-steps", "effitest-netlist v1\nffs 4\nbuffer 0 -0.5 0.5 -8\nend\n"},
		{"zero-steps", zeroStepsNetlist},
		{"mixed-steps", mixedStepsNetlist},
		{"no-circuit-line", noCircuitLineNetlist},
		{"nan-gate", "effitest-netlist v1\nffs 4\ngate 0 0 0 NaN\nend\n"},
		{"negative-minscale", "effitest-netlist v1\nffs 4\ngate 0 0 0 0.1\npath 0 0 1 0 -1 0\nend\n"},
	}
	// The lattice cases differ from an accepted netlist only in their
	// step counts.
	uniform := strings.Replace(mixedStepsNetlist, " 7\n", " 20\n", 1)
	if _, err := ParseNetlist(strings.NewReader(uniform)); err != nil {
		t.Fatalf("uniform-lattice control netlist rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := ParseNetlist(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("parser accepted hostile input, circuit = %+v", c)
			}
		})
	}
}
