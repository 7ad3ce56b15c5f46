package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"effitest"
	"effitest/fleet/httpapi"
)

// chipRec is the deterministic part of one chip's result: what the digest
// covers and what a reference run must reproduce bit for bit.
type chipRec struct {
	Iterations int
	Configured bool
	Passed     bool
	X          []float64
	Err        string
}

func recFromOutcome(out *effitest.ChipOutcome, err error) chipRec {
	if err != nil {
		return chipRec{Err: err.Error()}
	}
	return chipRec{Iterations: out.Iterations, Configured: out.Configured, Passed: out.Passed, X: out.X}
}

func recFromWire(r httpapi.ChipResult) chipRec {
	return chipRec{Iterations: r.Iterations, Configured: r.Configured, Passed: r.Passed, X: r.X, Err: r.Error}
}

// hashLot folds one lot's chips into h in order: for each chip its index in
// the lot, Iterations, Configured, Passed and the bits of every X entry.
func hashLot(h hash.Hash, recs []chipRec) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	put(uint64(len(recs)))
	for i, r := range recs {
		put(uint64(i))
		put(uint64(r.Iterations))
		put(flag(r.Configured)<<1 | flag(r.Passed))
		put(uint64(len(r.X)))
		for _, x := range r.X {
			put(math.Float64bits(x))
		}
		put(uint64(len(r.Err)))
		h.Write([]byte(r.Err))
	}
}

// lotDigest is the sha256 of one lot's chips.
func lotDigest(recs []chipRec) [32]byte {
	h := sha256.New()
	hashLot(h, recs)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// runDigest chains the per-lot digests in lot order into the workload's
// digest, so lots finishing out of order under several callers still give
// one fixed answer.
func runDigest(lots [][32]byte) string {
	h := sha256.New()
	for _, d := range lots {
		h.Write(d[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sameRecs reports the first chip where two runs of one lot differ.
func sameRecs(got, want []chipRec) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d chips, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Iterations != w.Iterations || g.Configured != w.Configured || g.Passed != w.Passed || g.Err != w.Err || len(g.X) != len(w.X) {
			return fmt.Errorf("chip %d: got %+v, reference %+v", i, g, w)
		}
		for j := range g.X {
			if math.Float64bits(g.X[j]) != math.Float64bits(w.X[j]) {
				return fmt.Errorf("chip %d: X[%d] = %v, reference %v", i, j, g.X[j], w.X[j])
			}
		}
	}
	return nil
}

// committedDigests maps workload name and fixed lot count to the digest of
// a -seed 1 run.
type committedDigests map[string]map[int]string

//go:embed testdata/digests.json
var digestFS embed.FS

// loadDigests reads the committed seed-1 digests.
func loadDigests() (committedDigests, error) {
	data, err := digestFS.ReadFile("testdata/digests.json")
	if err != nil {
		return nil, err
	}
	var m committedDigests
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return m, nil
}

// checkDigest compares a run's digest against the committed one. Only seed 1
// at a committed lot count has one; other runs pass through (checked=false)
// and rely on the reference-lot comparison instead.
func checkDigest(committed committedDigests, workload string, seed int64, lots int, digest string) (checked bool, err error) {
	want, ok := committed[workload][lots]
	if seed != 1 || !ok {
		return false, nil
	}
	if want != digest {
		return true, fmt.Errorf("%s: digest %s over %d lots, committed %s", workload, digest, lots, want)
	}
	return true, nil
}
