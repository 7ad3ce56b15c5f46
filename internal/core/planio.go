package core

// This file implements plan serialization: a versioned binary codec
// (MarshalBinary / UnmarshalBinary) plus SavePlan / LoadPlan file helpers. A
// serialized plan is a self-describing artifact — it embeds the circuit
// fingerprint it was prepared for and the full flow configuration — so the
// expensive offline Prepare can run once and its result be shared across
// processes and machines. A decoded plan is inert until Bind re-attaches the
// circuit (verifying the fingerprint and every index).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"effitest/internal/circuit"
)

// PlanFormatVersion is the serialization version of plan artifacts; bumped
// on any change to the encoded layout or to the offline flow's semantics,
// so stale artifacts fail to load instead of silently running an outdated
// plan.
//
// Version history:
//
//	1 — initial artifact format.
//	2 — plans carry baked conditional-prediction kernels (kernels.go).
//	    The encoded layout is unchanged — kernels are derived state,
//	    recomputed on Bind — but v1 artifacts predate the kernel contract,
//	    so they are rejected (ErrPlanVersion) and plan caches self-heal by
//	    re-preparing under the new version's key.
const PlanFormatVersion = 2

// planMagic opens every binary plan artifact.
var planMagic = []byte("EFTPLAN\x00")

// Plan decode errors; match with errors.Is.
var (
	// ErrPlanFormat reports a corrupt, truncated or non-plan input.
	ErrPlanFormat = errors.New("core: malformed plan artifact")
	// ErrPlanVersion reports an artifact from a different format version.
	ErrPlanVersion = errors.New("core: plan artifact version mismatch")
	// ErrPlanCircuitMismatch reports a Bind against a circuit whose
	// fingerprint differs from the one the plan was prepared for.
	ErrPlanCircuitMismatch = errors.New("core: plan was prepared for a different circuit")
)

// CircuitHash returns the fingerprint of the circuit a decoded plan was
// prepared for (empty until the plan is marshalled or unmarshalled).
func (pl *Plan) CircuitHash() string { return pl.circuitHash }

// ---- binary codec ----

type planEncoder struct{ buf []byte }

func (e *planEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *planEncoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *planEncoder) float(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *planEncoder) boolByte(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

func (e *planEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *planEncoder) ints(xs []int) {
	e.uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.varint(int64(x))
	}
}

type planDecoder struct {
	buf []byte
	pos int
}

func (d *planDecoder) fail(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrPlanFormat, what, d.pos)
}

func (d *planDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("bad uvarint")
	}
	d.pos += n
	return v, nil
}

func (d *planDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("bad varint")
	}
	d.pos += n
	return v, nil
}

func (d *planDecoder) intVal() (int, error) {
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, d.fail("integer out of range")
	}
	return int(v), nil
}

func (d *planDecoder) float() (float64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, d.fail("truncated float")
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v, nil
}

func (d *planDecoder) boolByte() (bool, error) {
	if d.pos >= len(d.buf) {
		return false, d.fail("truncated bool")
	}
	b := d.buf[d.pos]
	d.pos++
	if b > 1 {
		return false, d.fail("bad bool")
	}
	return b == 1, nil
}

// count reads a collection length and rejects lengths that cannot fit in
// the remaining input (each element takes ≥ min bytes), so corrupted
// headers cannot trigger huge allocations.
func (d *planDecoder) count(min int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if v > uint64((len(d.buf)-d.pos)/min) {
		return 0, d.fail("implausible collection length")
	}
	return int(v), nil
}

func (d *planDecoder) str(maxLen int) (string, error) {
	n, err := d.count(1)
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", d.fail("string too long")
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}

func (d *planDecoder) ints() ([]int, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		if out[i], err = d.intVal(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// encodeConfig writes every Config field in fixed order; decodeConfig is
// its exact mirror. Adding a Config field requires extending both and
// bumping PlanFormatVersion.
func encodeConfig(e *planEncoder, cfg Config) {
	e.varint(cfg.Seed)
	e.float(cfg.Eps)
	e.float(cfg.CorrStart)
	e.float(cfg.CorrStep)
	e.float(cfg.CorrFloor)
	e.float(cfg.PCKaiser)
	e.varint(int64(cfg.MaxGroupSize))
	e.boolByte(cfg.FillSlots)
	e.float(cfg.FillSigmaFrac)
	e.varint(int64(cfg.MaxBatch))
	e.varint(int64(cfg.AlignMode))
	e.varint(int64(cfg.ConfigMode))
	e.float(cfg.WeightK0)
	e.float(cfg.WeightKd)
	e.float(cfg.HoldYield)
	e.varint(int64(cfg.HoldSamples))
	e.float(cfg.TesterResolution)
	e.varint(int64(cfg.MaxIterPerPath))
	e.varint(int64(cfg.Workers))
}

func decodeConfig(d *planDecoder) (Config, error) {
	var cfg Config
	var err error
	fail := func(e error) (Config, error) { return Config{}, e }
	if cfg.Seed, err = d.varint(); err != nil {
		return fail(err)
	}
	for _, dst := range []*float64{&cfg.Eps, &cfg.CorrStart, &cfg.CorrStep, &cfg.CorrFloor, &cfg.PCKaiser} {
		if *dst, err = d.float(); err != nil {
			return fail(err)
		}
	}
	if cfg.MaxGroupSize, err = d.intVal(); err != nil {
		return fail(err)
	}
	if cfg.FillSlots, err = d.boolByte(); err != nil {
		return fail(err)
	}
	if cfg.FillSigmaFrac, err = d.float(); err != nil {
		return fail(err)
	}
	if cfg.MaxBatch, err = d.intVal(); err != nil {
		return fail(err)
	}
	var m int
	if m, err = d.intVal(); err != nil {
		return fail(err)
	}
	cfg.AlignMode = AlignMode(m)
	if m, err = d.intVal(); err != nil {
		return fail(err)
	}
	cfg.ConfigMode = ConfigureMode(m)
	for _, dst := range []*float64{&cfg.WeightK0, &cfg.WeightKd, &cfg.HoldYield} {
		if *dst, err = d.float(); err != nil {
			return fail(err)
		}
	}
	if cfg.HoldSamples, err = d.intVal(); err != nil {
		return fail(err)
	}
	if cfg.TesterResolution, err = d.float(); err != nil {
		return fail(err)
	}
	if cfg.MaxIterPerPath, err = d.intVal(); err != nil {
		return fail(err)
	}
	if cfg.Workers, err = d.intVal(); err != nil {
		return fail(err)
	}
	return cfg, nil
}

// MarshalBinary encodes the plan as a versioned, self-describing binary
// artifact. The plan must still be bound to its circuit (the fingerprint is
// embedded so decoding can verify what the plan belongs to).
func (pl *Plan) MarshalBinary() ([]byte, error) {
	hash := pl.circuitHash
	name := pl.circuitName
	if pl.Circuit != nil {
		var err error
		if hash, err = pl.Circuit.Fingerprint(); err != nil {
			return nil, err
		}
		name = pl.Circuit.Name
	}
	if hash == "" {
		return nil, fmt.Errorf("core: cannot marshal a plan with no circuit")
	}
	e := &planEncoder{buf: append([]byte{}, planMagic...)}
	e.uvarint(PlanFormatVersion)
	e.str(hash)
	e.str(name)
	encodeConfig(e, pl.Cfg)
	e.uvarint(uint64(len(pl.Groups)))
	for _, g := range pl.Groups {
		e.ints(g.Paths)
		e.float(g.Threshold)
		e.varint(int64(g.NumPCs))
		e.ints(g.Selected)
	}
	e.ints(pl.Tested)
	e.ints(pl.Filled)
	e.uvarint(uint64(len(pl.Batches)))
	for _, b := range pl.Batches {
		e.ints(b)
	}
	e.boolByte(pl.Hold != nil)
	if pl.Hold != nil {
		pairs := sortedHoldPairs(pl.Hold)
		e.uvarint(uint64(len(pairs)))
		for _, p := range pairs {
			e.varint(int64(p.pair[0]))
			e.varint(int64(p.pair[1]))
			e.float(p.lambda)
		}
	}
	e.varint(int64(pl.PrepDuration))
	return e.buf, nil
}

// UnmarshalBinary decodes a binary plan artifact. The result is unbound:
// call Bind with the matching circuit before running chips. Corrupt,
// truncated or version-skewed input returns a typed error (ErrPlanFormat /
// ErrPlanVersion) — never a panic.
func (pl *Plan) UnmarshalBinary(data []byte) error {
	if !bytes.HasPrefix(data, planMagic) {
		return fmt.Errorf("%w: missing magic", ErrPlanFormat)
	}
	d := &planDecoder{buf: data, pos: len(planMagic)}
	ver, err := d.uvarint()
	if err != nil {
		return err
	}
	if ver != PlanFormatVersion {
		return fmt.Errorf("%w: artifact version %d, this build reads %d", ErrPlanVersion, ver, PlanFormatVersion)
	}
	hash, err := d.str(128)
	if err != nil {
		return err
	}
	name, err := d.str(1 << 12)
	if err != nil {
		return err
	}
	cfg, err := decodeConfig(d)
	if err != nil {
		return err
	}
	ng, err := d.count(2)
	if err != nil {
		return err
	}
	groups := make([]Group, ng)
	for i := range groups {
		if groups[i].Paths, err = d.ints(); err != nil {
			return err
		}
		if groups[i].Threshold, err = d.float(); err != nil {
			return err
		}
		if groups[i].NumPCs, err = d.intVal(); err != nil {
			return err
		}
		if groups[i].Selected, err = d.ints(); err != nil {
			return err
		}
	}
	tested, err := d.ints()
	if err != nil {
		return err
	}
	filled, err := d.ints()
	if err != nil {
		return err
	}
	nb, err := d.count(1)
	if err != nil {
		return err
	}
	batches := make([][]int, nb)
	for i := range batches {
		if batches[i], err = d.ints(); err != nil {
			return err
		}
	}
	var hold *HoldBounds
	hasHold, err := d.boolByte()
	if err != nil {
		return err
	}
	if hasHold {
		np, err := d.count(10)
		if err != nil {
			return err
		}
		hold = &HoldBounds{ByPair: make(map[[2]int]float64, np)}
		for i := 0; i < np; i++ {
			from, err := d.intVal()
			if err != nil {
				return err
			}
			to, err := d.intVal()
			if err != nil {
				return err
			}
			lam, err := d.float()
			if err != nil {
				return err
			}
			hold.ByPair[[2]int{from, to}] = lam
		}
	}
	durNs, err := d.varint()
	if err != nil {
		return err
	}
	if d.pos != len(d.buf) {
		return d.fail("trailing bytes")
	}

	*pl = Plan{
		Cfg:          cfg,
		Groups:       groups,
		Tested:       tested,
		Filled:       filled,
		Batches:      batches,
		Hold:         hold,
		PrepDuration: time.Duration(durNs),
		circuitHash:  hash,
		circuitName:  name,
	}
	return nil
}

type holdPair struct {
	pair   [2]int
	lambda float64
}

func sortedHoldPairs(h *HoldBounds) []holdPair {
	out := make([]holdPair, 0, len(h.ByPair))
	for p, l := range h.ByPair {
		out = append(out, holdPair{p, l})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pair[0] != out[j].pair[0] {
			return out[i].pair[0] < out[j].pair[0]
		}
		return out[i].pair[1] < out[j].pair[1]
	})
	return out
}

// ---- binding and validation ----

// Bind attaches a decoded plan to its circuit: the circuit's fingerprint
// must match the one embedded in the artifact (ErrPlanCircuitMismatch
// otherwise), every path index and hold pair is checked against the
// circuit and the flow configuration is re-validated. Bind then bakes the
// conditional-prediction kernels, fanned out across the plan's Workers, so
// after a successful Bind the plan behaves exactly like one produced by
// Prepare on this process. Bind writes nothing into the plan's Groups,
// Tested or Batches, and a failed Bind — including a kernel bake failure,
// possible only on a tampered-but-plausible artifact such as a group whose
// covariance is singular — leaves the plan unbound.
func (pl *Plan) Bind(c *circuit.Circuit) error {
	hash, err := c.Fingerprint()
	if err != nil {
		return err
	}
	if pl.circuitHash != "" && pl.circuitHash != hash {
		return fmt.Errorf("%w: artifact for %q (%.12s…), got %q (%.12s…)",
			ErrPlanCircuitMismatch, pl.circuitName, pl.circuitHash, c.Name, hash)
	}
	if err := pl.Cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrPlanFormat, err)
	}
	if err := pl.validateAgainst(c); err != nil {
		return err
	}
	// The kernels are derived state — recomputed here, never shipped.
	ks, err := bakePredictKernels(context.Background(), c, pl.Groups, pl.Tested, pl.Cfg.Workers)
	if err != nil {
		return err
	}
	pl.Circuit = c
	pl.circuitHash = hash
	pl.circuitName = c.Name
	pl.installKernels(ks)
	return nil
}

// validateAgainst checks the plan's path indices and hold list against c,
// so a decoded artifact can never cause out-of-range access in the online
// flow or leave a path pair without its hold bound.
func (pl *Plan) validateAgainst(c *circuit.Circuit) error {
	np := c.NumPaths()
	checkPaths := func(what string, ids []int) error {
		for _, p := range ids {
			if p < 0 || p >= np {
				return fmt.Errorf("%w: %s path id %d out of range [0,%d)", ErrPlanFormat, what, p, np)
			}
		}
		return nil
	}
	for gi, g := range pl.Groups {
		if len(g.Paths) == 0 {
			return fmt.Errorf("%w: group %d is empty", ErrPlanFormat, gi)
		}
		if err := checkPaths("group", g.Paths); err != nil {
			return err
		}
		if err := checkPaths("selected", g.Selected); err != nil {
			return err
		}
	}
	if err := checkPaths("tested", pl.Tested); err != nil {
		return err
	}
	if err := checkPaths("filled", pl.Filled); err != nil {
		return err
	}
	for _, b := range pl.Batches {
		if err := checkPaths("batch", b); err != nil {
			return err
		}
	}
	// The hold list must be exactly the circuit's path pairs, each with a
	// finite λ: Lambda reports an absent pair as unconstrained.
	if pl.Hold == nil {
		return fmt.Errorf("%w: no hold bounds", ErrPlanFormat)
	}
	pairs := make(map[[2]int]bool, len(pl.Hold.ByPair))
	for _, p := range c.Paths {
		key := [2]int{p.From, p.To}
		if lam, ok := pl.Hold.ByPair[key]; !ok || math.IsNaN(lam) || math.IsInf(lam, 0) {
			return fmt.Errorf("%w: path pair (%d,%d) has no finite hold bound", ErrPlanFormat, p.From, p.To)
		}
		pairs[key] = true
	}
	if len(pairs) != len(pl.Hold.ByPair) {
		return fmt.Errorf("%w: %d hold pairs for %d path pairs", ErrPlanFormat, len(pl.Hold.ByPair), len(pairs))
	}
	return nil
}

// ---- file helpers ----

// SavePlan writes the plan's binary artifact (MarshalBinary) to path
// atomically (temp file + rename), whatever the path's extension.
func SavePlan(path string, pl *Plan) error {
	data, err := pl.MarshalBinary()
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// LoadPlan reads a binary plan artifact and binds it to the circuit.
func LoadPlan(path string, c *circuit.Circuit) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pl, err := DecodePlan(data)
	if err != nil {
		return nil, fmt.Errorf("core: load plan %s: %w", path, err)
	}
	if err := pl.Bind(c); err != nil {
		return nil, fmt.Errorf("core: load plan %s: %w", path, err)
	}
	return pl, nil
}

// DecodePlan decodes a binary plan artifact (UnmarshalBinary into a new
// Plan). The result is unbound until Bind.
func DecodePlan(data []byte) (*Plan, error) {
	pl := &Plan{}
	if err := pl.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return pl, nil
}

func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".plan-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
