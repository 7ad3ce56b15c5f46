package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"effitest/internal/circuit"
)

// fuzzPlanArtifacts builds one small valid artifact to seed the fuzzer (plus
// the circuit to Bind against).
func fuzzPlanArtifacts(tb testing.TB) (*circuit.Circuit, []byte) {
	tb.Helper()
	c, err := circuit.Generate(circuit.TinyProfile("fuzzplan", 12, 96, 2, 14), 7)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HoldSamples = 40 // keep per-process seeding fast
	pl, err := Prepare(c, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	bin, err := pl.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return c, bin
}

// FuzzPlanDecode asserts the plan codec's safety contract: arbitrary input
// — truncated, bit-flipped, version-skewed, or valid-but-tampered — must
// either decode or return a typed error. It must never panic, hang, or
// allocate unboundedly; and whatever decodes must survive Bind's
// range validation without out-of-range access.
func FuzzPlanDecode(f *testing.F) {
	c, bin := fuzzPlanArtifacts(f)

	f.Add(bin)
	f.Add(append(append([]byte{}, bin...), 0)) // trailing byte
	f.Add(bin[:len(bin)/2])                    // truncated
	f.Add(bin[:len(planMagic)+1])              // header only
	f.Add([]byte("EFTPLAN\x00"))               // magic, nothing else
	f.Add([]byte("{}"))                        // no magic
	f.Add([]byte("EFTPLAN\x00\xff"))           // magic, bad version varint
	f.Add([]byte{})                            // empty
	skew := append([]byte{}, bin...)
	skew[len(planMagic)] ^= 0x7F // corrupt the version byte
	f.Add(skew)
	flip := append([]byte{}, bin...)
	flip[len(flip)/2] ^= 0xFF // flip a payload bit
	f.Add(flip)
	// Previous-format (v1) and future-format artifacts: must be rejected
	// with the typed version error, never decoded into garbage kernels.
	f.Add(v1BinaryArtifact(f, bin))
	future := append([]byte{}, bin...)
	future[len(planMagic)] = PlanFormatVersion + 1
	f.Add(future)
	// A v2 artifact prepared under the removed MILP configuration mode.
	f.Add(milpConfigureArtifact(f, bin))

	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := DecodePlan(data)
		if err != nil {
			return // rejected cleanly: the contract holds
		}
		// Whatever decoded must also bind safely (possibly with an error,
		// e.g. fingerprint mismatch or out-of-range ids) — never panic.
		_ = pl.Bind(c)
	})
}

// TestRegenFuzzCorpusSeeds regenerates the checked-in FuzzPlanDecode corpus
// entries that track the current plan format version. Run it after a
// PlanFormatVersion bump:
//
//	EFFITEST_UPDATE_FUZZ_CORPUS=1 go test -run TestRegenFuzzCorpusSeeds ./internal/core/
func TestRegenFuzzCorpusSeeds(t *testing.T) {
	if os.Getenv("EFFITEST_UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set EFFITEST_UPDATE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	_, bin := fuzzPlanArtifacts(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzPlanDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		t.Helper()
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("valid_binary", bin)
	write("truncated", bin[:len(bin)/2])
	flip := append([]byte{}, bin...)
	flip[len(flip)/2] ^= 0xFF
	write("payload_flip", flip)
	skew := append([]byte{}, bin...)
	skew[len(planMagic)] ^= 0x7F
	write("version_skew", skew)
	write("version_v1_binary", v1BinaryArtifact(t, bin))
}
