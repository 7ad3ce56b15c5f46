package circuit

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// fprintfNetlist is the fmt-based writer WriteNetlist replaced, kept as
// the byte-for-byte reference: fingerprints hash these bytes.
func fprintfNetlist(w io.Writer, c *Circuit) error {
	cfg := c.Model.Cfg
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, netlistHeader)
	fmt.Fprintf(bw, "circuit %s\n", c.Name)
	fmt.Fprintf(bw, "ffs %d\n", c.NumFF)
	fmt.Fprintf(bw, "setup %s\n", ff(c.SetupTime))
	fmt.Fprintf(bw, "hold %s\n", ff(c.HoldTime))
	fmt.Fprintf(bw, "tnominal %s\n", ff(c.TNominal))
	fmt.Fprintf(bw, "variation %d %d %s %s %s %s %s %s %s %s %s\n",
		cfg.GridW, cfg.GridH,
		ff(cfg.SigmaL), ff(cfg.SigmaTox), ff(cfg.SigmaVth),
		ff(cfg.CorrGlobal), ff(cfg.CorrDecay),
		ff(cfg.SensL), ff(cfg.SensTox), ff(cfg.SensVth), ff(cfg.SigmaRand))
	for _, b := range c.Buffered {
		fmt.Fprintf(bw, "buffer %d %s %s %d\n", b, ff(c.Buf.Lo[b]), ff(c.Buf.Hi[b]), c.Buf.Steps)
	}
	for _, g := range c.Gates {
		fmt.Fprintf(bw, "gate %d %d %d %s\n", g.ID, g.CellX, g.CellY, ff(g.Nominal))
	}
	for _, p := range c.Paths {
		ids := make([]string, len(p.Gates))
		for i, g := range p.Gates {
			ids[i] = strconv.Itoa(g)
		}
		fmt.Fprintf(bw, "path %d %d %d %d %s %s\n",
			p.ID, p.From, p.To, p.Cluster, ff(p.MinScale), strings.Join(ids, ","))
	}
	for _, e := range c.Exclusive {
		fmt.Fprintf(bw, "exclusive %d %d\n", e[0], e[1])
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// TestWriteNetlistMatchesFprintf pins WriteNetlist's bytes to the fmt
// writer's on generated circuits, a parsed round trip, and a circuit whose
// first path has no gates (its gate list is an empty last field).
func TestWriteNetlistMatchesFprintf(t *testing.T) {
	var circuits []*Circuit
	for _, name := range []string{"s9234", "usb_funct"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("no %s profile", name)
		}
		c, err := Generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	tiny64, err := Generate(TinyProfile("tiny64", 64, 640, 6, 72), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, tiny64); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gateless := *tiny64
	gateless.Name = "gateless"
	gateless.Paths = append([]Path(nil), tiny64.Paths...)
	gateless.Paths[0].Gates = nil
	gateless.Exclusive = append(gateless.Exclusive, [2]int{0, 1})
	circuits = append(circuits, tiny64, parsed, &gateless)

	for _, c := range circuits {
		var got, want bytes.Buffer
		if err := WriteNetlist(&got, c); err != nil {
			t.Fatal(err)
		}
		if err := fprintfNetlist(&want, c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.String(), want.String()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("%s: netlist bytes differ at offset %d: got %q, want %q",
				c.Name, i, truncate(g[i:], 60), truncate(w[i:], 60))
		}
		// The gate-free path's line ends with the separator of its empty
		// gate list, so this case did compare that shape.
		if c == &gateless && !bytes.Contains(got.Bytes(), []byte(" \n")) {
			t.Fatal("gateless circuit has no path line with an empty gate list")
		}
	}
}
