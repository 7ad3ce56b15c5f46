package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"effitest/internal/skew"
	"effitest/internal/ssta"
	"effitest/internal/variation"
)

// The netlist format is a line-oriented text form that captures circuit
// structure (FFs, gates with placement, paths, buffers, exclusions) plus the
// variation-model configuration. Statistical delay forms are derived data:
// the parser reconstructs every canonical form from the gates, so a
// write/parse round trip reproduces the circuit exactly.

const netlistHeader = "effitest-netlist v1"

// Parser hardening bounds. Netlists are an interchange format, so the
// parser must fail cleanly on hostile input instead of allocating
// unboundedly: the flip-flop count sizes several arrays up front, and the
// variation grid is Cholesky-factorized (O(cells³)). Larger models remain
// available programmatically.
const (
	maxNetlistFF        = 1 << 20
	maxNetlistGridCells = 1024
	maxNetlistSteps     = 1 << 20
)

// netlistArity maps every directive to its fixed argument count.
var netlistArity = map[string]int{
	"end": 0, "circuit": 1, "ffs": 1, "setup": 1, "hold": 1, "tnominal": 1,
	"variation": 11, "buffer": 4, "gate": 4, "path": 6, "exclusive": 2,
}

// parseFinite parses a float and rejects NaN/±Inf: every numeric quantity
// in a netlist is a physical delay, sigma or scale, and a non-finite value
// would sail through downstream validation (NaN compares false against
// every bound) and corrupt the statistical model.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteNetlist serializes the circuit. Only the default grid variation
// model is serializable; quad-tree models are a programmatic option. Every
// line is built in one reused buffer with strconv's append forms (numbers
// as %d and ff print them), since the fingerprint hashes these bytes.
func WriteNetlist(w io.Writer, c *Circuit) error {
	cfg := c.Model.Cfg
	if cfg.Kind != variation.KindGrid {
		return fmt.Errorf("netlist: only the grid variation model is serializable (got kind %d)", cfg.Kind)
	}
	bw := bufio.NewWriter(w)
	b := make([]byte, 0, 256)
	// endLine writes the line built in b and empties b for the next one.
	endLine := func() {
		b = append(b, '\n')
		bw.Write(b)
		b = b[:0]
	}
	b = append(b, netlistHeader...)
	endLine()
	b = append(append(b, "circuit "...), c.Name...)
	endLine()
	b = appendInt(append(b, "ffs"...), c.NumFF)
	endLine()
	b = appendFloat(append(b, "setup"...), c.SetupTime)
	endLine()
	b = appendFloat(append(b, "hold"...), c.HoldTime)
	endLine()
	b = appendFloat(append(b, "tnominal"...), c.TNominal)
	endLine()
	b = appendInt(append(b, "variation"...), cfg.GridW)
	b = appendInt(b, cfg.GridH)
	for _, v := range []float64{cfg.SigmaL, cfg.SigmaTox, cfg.SigmaVth, cfg.CorrGlobal,
		cfg.CorrDecay, cfg.SensL, cfg.SensTox, cfg.SensVth, cfg.SigmaRand} {
		b = appendFloat(b, v)
	}
	endLine()
	for _, f := range c.Buffered {
		b = appendInt(append(b, "buffer"...), f)
		b = appendFloat(b, c.Buf.Lo[f])
		b = appendFloat(b, c.Buf.Hi[f])
		b = appendInt(b, c.Buf.Steps)
		endLine()
	}
	for _, g := range c.Gates {
		b = appendInt(append(b, "gate"...), g.ID)
		b = appendInt(b, g.CellX)
		b = appendInt(b, g.CellY)
		b = appendFloat(b, g.Nominal)
		endLine()
	}
	for _, p := range c.Paths {
		b = appendInt(append(b, "path"...), p.ID)
		b = appendInt(b, p.From)
		b = appendInt(b, p.To)
		b = appendInt(b, p.Cluster)
		b = appendFloat(b, p.MinScale)
		b = append(b, ' ') // the comma-separated gate list, empty for no gates
		for i, g := range p.Gates {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(g), 10)
		}
		endLine()
	}
	for _, e := range c.Exclusive {
		b = appendInt(append(b, "exclusive"...), e[0])
		b = appendInt(b, e[1])
		endLine()
	}
	bw.WriteString("end\n")
	return bw.Flush()
}

// appendInt appends a space and v in decimal.
func appendInt(b []byte, v int) []byte { return strconv.AppendInt(append(b, ' '), int64(v), 10) }

// appendFloat appends a space and v as ff formats it.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(append(b, ' '), v, 'g', -1, 64)
}

// ParseNetlist reads a circuit back from the text form, reconstructing all
// statistical delay forms from the gates and variation model.
func ParseNetlist(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			ln := strings.TrimSpace(sc.Text())
			if ln == "" || strings.HasPrefix(ln, "#") {
				continue
			}
			return ln, true
		}
		return "", false
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("netlist line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	ln, ok := next()
	if !ok || ln != netlistHeader {
		return nil, fail("missing header %q", netlistHeader)
	}

	c := &Circuit{}
	c.memo = &memo{owner: c}
	var cfg variation.Config
	var haveVar bool
	// Buffer lines may precede the ffs line, so their FF ids are checked
	// once the count is known.
	type rawBuffer struct {
		ff     int
		lo, hi float64
	}
	var rawBufs []rawBuffer
	steps := 0 // the lattice every buffer shares, set by the first buffer line
	type rawPath struct {
		id, from, to, cluster int
		minScale              float64
		gates                 []int
	}
	var rawPaths []rawPath

	for {
		ln, ok := next()
		if !ok {
			return nil, fail("missing end marker")
		}
		fields := strings.Fields(ln)
		// Every directive has a fixed arity; checking it here keeps the
		// per-case code free of index-out-of-range hazards on truncated
		// lines.
		if want, known := netlistArity[fields[0]]; known && len(fields) != want+1 {
			return nil, fail("%s wants %d args, got %d", fields[0], want, len(fields)-1)
		}
		switch fields[0] {
		case "end":
			goto done
		case "circuit":
			c.Name = fields[1]
		case "ffs":
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad ff count: %v", err)
			}
			if v < 1 || v > maxNetlistFF {
				return nil, fail("ff count %d outside [1, %d]", v, maxNetlistFF)
			}
			c.NumFF = v
		case "setup", "hold", "tnominal":
			v, err := parseFinite(fields[1])
			if err != nil {
				return nil, fail("bad %s: %v", fields[0], err)
			}
			switch fields[0] {
			case "setup":
				c.SetupTime = v
			case "hold":
				c.HoldTime = v
			default:
				c.TNominal = v
			}
		case "variation":
			ints := [2]int{}
			for i := 0; i < 2; i++ {
				v, err := strconv.Atoi(fields[1+i])
				if err != nil {
					return nil, fail("bad variation grid: %v", err)
				}
				ints[i] = v
			}
			// Bound each dimension before multiplying: the product of two
			// huge ints can wrap past the cell cap.
			if ints[0] < 1 || ints[1] < 1 ||
				ints[0] > maxNetlistGridCells || ints[1] > maxNetlistGridCells ||
				ints[0]*ints[1] > maxNetlistGridCells {
				return nil, fail("variation grid %dx%d outside [1,1]..[%d cells]", ints[0], ints[1], maxNetlistGridCells)
			}
			fs := [9]float64{}
			for i := 0; i < 9; i++ {
				v, err := parseFinite(fields[3+i])
				if err != nil {
					return nil, fail("bad variation field: %v", err)
				}
				fs[i] = v
			}
			if fs[0] < 0 || fs[1] < 0 || fs[2] < 0 || fs[8] < 0 {
				return nil, fail("variation sigmas must be non-negative")
			}
			if fs[4] <= 0 {
				return nil, fail("variation correlation decay must be positive")
			}
			cfg = variation.Config{
				GridW: ints[0], GridH: ints[1],
				SigmaL: fs[0], SigmaTox: fs[1], SigmaVth: fs[2],
				CorrGlobal: fs[3], CorrDecay: fs[4],
				SensL: fs[5], SensTox: fs[6], SensVth: fs[7],
				SigmaRand: fs[8],
			}
			haveVar = true
		case "buffer":
			ffid, err1 := strconv.Atoi(fields[1])
			lo, err2 := parseFinite(fields[2])
			hi, err3 := parseFinite(fields[3])
			n, err4 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fail("bad buffer line")
			}
			if lo > hi {
				return nil, fail("buffer range [%g,%g] inverted", lo, hi)
			}
			if n < 1 || n > maxNetlistSteps {
				return nil, fail("buffer steps %d outside [1, %d]", n, maxNetlistSteps)
			}
			if steps == 0 {
				steps = n
			} else if n != steps {
				return nil, fail("buffer steps %d differ from the first buffer's %d", n, steps)
			}
			rawBufs = append(rawBufs, rawBuffer{ffid, lo, hi})
		case "gate":
			id, err1 := strconv.Atoi(fields[1])
			x, err2 := strconv.Atoi(fields[2])
			y, err3 := strconv.Atoi(fields[3])
			nom, err4 := parseFinite(fields[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fail("bad gate line")
			}
			if id != len(c.Gates) {
				return nil, fail("gate ids must be dense and ascending, got %d", id)
			}
			c.Gates = append(c.Gates, Gate{ID: id, CellX: x, CellY: y, Nominal: nom})
		case "path":
			id, err1 := strconv.Atoi(fields[1])
			from, err2 := strconv.Atoi(fields[2])
			to, err3 := strconv.Atoi(fields[3])
			cluster, err4 := strconv.Atoi(fields[4])
			minScale, err5 := parseFinite(fields[5])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
				return nil, fail("bad path line")
			}
			if minScale < 0 {
				return nil, fail("path min-scale %g negative", minScale)
			}
			var gates []int
			for _, s := range strings.Split(fields[6], ",") {
				g, err := strconv.Atoi(s)
				if err != nil {
					return nil, fail("bad gate ref %q", s)
				}
				gates = append(gates, g)
			}
			rawPaths = append(rawPaths, rawPath{id, from, to, cluster, minScale, gates})
		case "exclusive":
			a, err1 := strconv.Atoi(fields[1])
			b, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fail("bad exclusive line")
			}
			c.Exclusive = append(c.Exclusive, [2]int{a, b})
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
done:
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// WriteNetlist always writes the name, and "circuit" with no argument
	// does not parse, so a nameless circuit could not round-trip.
	if c.Name == "" {
		return nil, fmt.Errorf("netlist: missing circuit line")
	}
	if !haveVar {
		return nil, fmt.Errorf("netlist: missing variation line")
	}
	model, err := variation.New(cfg)
	if err != nil {
		return nil, err
	}
	c.Model = model

	c.Buf = skew.Buffers{
		N:        c.NumFF,
		Buffered: make([]bool, c.NumFF),
		Lo:       make([]float64, c.NumFF),
		Hi:       make([]float64, c.NumFF),
		Steps:    steps,
	}
	for _, rb := range rawBufs {
		if rb.ff < 0 || rb.ff >= c.NumFF {
			return nil, fmt.Errorf("netlist: buffer FF %d out of range", rb.ff)
		}
		c.Buffered = append(c.Buffered, rb.ff)
		c.Buf.Buffered[rb.ff] = true
		c.Buf.Lo[rb.ff] = rb.lo
		c.Buf.Hi[rb.ff] = rb.hi
	}

	// Rebuild canonical forms from gates.
	for _, rp := range rawPaths {
		if rp.id != len(c.Paths) {
			return nil, fmt.Errorf("netlist: path ids must be dense and ascending, got %d", rp.id)
		}
		for _, gid := range rp.gates {
			if gid < 0 || gid >= len(c.Gates) {
				return nil, fmt.Errorf("netlist: path %d references gate %d", rp.id, gid)
			}
		}
		canon := pathCanon(model, c.Gates, rp.gates)
		c.Paths = append(c.Paths, Path{
			ID: rp.id, From: rp.from, To: rp.to, Gates: rp.gates,
			Cluster: rp.cluster, MinScale: rp.minScale,
			Max: ssta.ShiftMean(canon, c.SetupTime),
			Min: ssta.Scale(canon, rp.minScale),
		})
	}
	c.packLoadings()
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	return c, nil
}
