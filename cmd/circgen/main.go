// Command circgen generates benchmark timing-graph netlists and reports
// their statistics.
//
// Usage:
//
//	circgen -circuit s9234 -seed 1 -o s9234.net    # write a netlist
//	circgen -circuit mem_ctrl -stats               # print statistics only
//	circgen -parse s9234.net                       # validate a netlist file
package main

import (
	"flag"
	"fmt"
	"os"

	"effitest"
)

func main() {
	var (
		name  = flag.String("circuit", "s9234", "benchmark circuit name")
		seed  = flag.Int64("seed", 1, "generator seed")
		out   = flag.String("o", "", "write the netlist to this file ('-' = stdout)")
		dot   = flag.String("dot", "", "write a Graphviz DOT view of the timing graph to this file")
		stats = flag.Bool("stats", false, "print circuit statistics")
		parse = flag.String("parse", "", "parse and validate a netlist file instead of generating")
		fp    = flag.Bool("fingerprint", false, "print the circuit content fingerprint (the plan-cache/artifact key component)")
	)
	flag.Parse()

	if *parse != "" {
		f, err := os.Open(*parse)
		fatal(err)
		defer f.Close()
		c, err := effitest.ParseNetlist(f)
		fatal(err)
		fmt.Printf("%s: valid netlist (ns=%d ng=%d nb=%d np=%d)\n",
			*parse, c.NumFF, c.NumGates(), c.NumBuffers(), c.NumPaths())
		if *fp {
			printFingerprint(c)
		}
		return
	}

	profile, ok := effitest.ProfileByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown circuit %q\n", *name)
		os.Exit(1)
	}
	c, err := effitest.Generate(profile, *seed)
	fatal(err)

	if *stats || (*out == "" && *dot == "" && !*fp) {
		printStats(c)
	}
	if *fp {
		printFingerprint(c)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		fatal(err)
		fatal(effitest.WriteDOT(f, c))
		fatal(f.Close())
		fmt.Printf("wrote %s\n", *dot)
	}
	if *out != "" {
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			fatal(err)
			defer f.Close()
			w = f
		}
		fatal(effitest.WriteNetlist(w, c))
		if *out != "-" {
			fmt.Printf("wrote %s\n", *out)
		}
	}
}

// printFingerprint prints the content hash that keys plan artifacts and
// the plan cache: two circuits with equal fingerprints are interchangeable
// inputs to the offline flow.
func printFingerprint(c *effitest.Circuit) {
	h, err := c.Fingerprint()
	fatal(err)
	fmt.Printf("fingerprint %s\n", h)
}

func printStats(c *effitest.Circuit) {
	fmt.Printf("circuit %s\n", c.Name)
	fmt.Printf("  flip-flops:   %d (%d with tuning buffers)\n", c.NumFF, c.NumBuffers())
	fmt.Printf("  gates:        %d\n", c.NumGates())
	fmt.Printf("  timing paths: %d\n", c.NumPaths())
	fmt.Printf("  nominal clock: %.4f ns (buffer range τ = %.4f ns, %d steps)\n",
		c.TNominal, c.TNominal/8, c.Buf.Steps)
	var minMu, maxMu, sumSigma float64
	minMu = 1e18
	for i := range c.Paths {
		mu := c.Paths[i].Max.Mean
		if mu < minMu {
			minMu = mu
		}
		if mu > maxMu {
			maxMu = mu
		}
		sumSigma += c.Paths[i].Max.Sigma()
	}
	fmt.Printf("  path delay means: [%.4f, %.4f] ns, avg sigma %.4f ns\n",
		minMu, maxMu, sumSigma/float64(c.NumPaths()))
	fmt.Printf("  exclusive (ATPG-masked) pairs: %d\n", len(c.Exclusive))
	fmt.Printf("  scan chain: %d configuration bits\n", c.ScanBits())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "circgen:", err)
		os.Exit(1)
	}
}
