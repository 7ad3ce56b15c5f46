package circuit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Fingerprint returns the circuit's stable identity, memoised on first use:
// the SHA-256 of its canonical netlist (timing constants, grid variation
// model, buffers, gates, paths, exclusive pairs). The netlist carries no
// delay forms; Generate and ParseNetlist derive them from the gates and the
// model, so circuits they return with equal fingerprints are
// interchangeable inputs to Prepare. The hash keys plan artifacts, the plan
// cache and fleet registries. WithInflatedSigma's copy, whose forms the
// netlist does not reflect, gets a derived identity instead.
func (c *Circuit) Fingerprint() (string, error) {
	m := c.derived()
	m.fpOnce.Do(func() {
		h := sha256.New()
		if m.fpErr = WriteNetlist(h, c); m.fpErr == nil {
			m.fp = hex.EncodeToString(h.Sum(nil))
		}
	})
	return m.fp, m.fpErr
}

// inflatedFingerprint is the identity of WithInflatedSigma(factor) applied
// to a circuit with fingerprint base.
func inflatedFingerprint(base string, factor float64) string {
	h := sha256.New()
	fmt.Fprintf(h, "effitest-inflated-sigma|%s|%s", base, ff(factor))
	return hex.EncodeToString(h.Sum(nil))
}
