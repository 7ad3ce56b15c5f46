package circuit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// fpMu serializes lazy fingerprint memoisation, as covMu does for the
// covariance cache: each circuit is hashed at most once.
var fpMu sync.Mutex

// Fingerprint returns the circuit's stable identity, memoised on first use:
// the SHA-256 of its canonical netlist (timing constants, grid variation
// model, buffers, gates, paths, exclusive pairs). The netlist carries no
// delay forms; Generate and ParseNetlist derive them from the gates and the
// model, so circuits they return with equal fingerprints are
// interchangeable inputs to Prepare. The hash keys plan artifacts, the plan
// cache and fleet registries. WithInflatedSigma's copy, whose forms the
// netlist does not reflect, gets a derived identity instead.
func (c *Circuit) Fingerprint() (string, error) {
	fpMu.Lock()
	defer fpMu.Unlock()
	if c.fingerprint == "" {
		h := sha256.New()
		if err := WriteNetlist(h, c); err != nil {
			return "", err
		}
		c.fingerprint = hex.EncodeToString(h.Sum(nil))
	}
	return c.fingerprint, nil
}

// inflatedFingerprint is the identity of WithInflatedSigma(factor) applied
// to a circuit with fingerprint base.
func inflatedFingerprint(base string, factor float64) string {
	h := sha256.New()
	fmt.Fprintf(h, "effitest-inflated-sigma|%s|%s", base, ff(factor))
	return hex.EncodeToString(h.Sum(nil))
}
