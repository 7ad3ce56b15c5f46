package circuit

import (
	"bytes"
	"sync"
	"testing"
)

// TestFingerprintPinned pins circuit identities: plan-cache keys, plan-store
// addresses and journaled fingerprints are all derived from them, so a
// change here orphans every stored artifact.
func TestFingerprintPinned(t *testing.T) {
	s9234, ok := ProfileByName("s9234")
	if !ok {
		t.Fatal("no s9234 profile")
	}
	for _, tc := range []struct {
		p    Profile
		want string
	}{
		{TinyProfile("tiny64", 64, 640, 6, 72), "762dea583b1a91c2b5a47d7150275eb52ad4c46255b495f21e720d2660251178"},
		{s9234, "0ed0cffa3198f016eed4733d70cffc924a02d5d7b80c379d1c9d72aaa52dce45"},
	} {
		c, err := Generate(tc.p, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.p.Name, got, tc.want)
		}
		// A parsed copy is the same content, so the same identity.
		var buf bytes.Buffer
		if err := WriteNetlist(&buf, c); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseNetlist(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := parsed.Fingerprint(); err != nil || got != tc.want {
			t.Errorf("%s: parsed fingerprint %s (%v), want %s", tc.p.Name, got, err, tc.want)
		}
	}
}

// Only the first call hashes; later calls return the memo without
// allocating.
func TestFingerprintMemoised(t *testing.T) {
	c := tinyCircuit(t)
	first, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var again string
	if allocs := testing.AllocsPerRun(100, func() { again, _ = c.Fingerprint() }); allocs != 0 {
		t.Fatalf("memoised Fingerprint allocates %v times per call", allocs)
	}
	if again != first {
		t.Fatalf("memoised fingerprint %s != first %s", again, first)
	}
}

// Racing first calls on one circuit must agree (run under -race).
func TestFingerprintConcurrentFirstCalls(t *testing.T) {
	c := tinyCircuit(t)
	want, err := Generate(TinyProfile("tiny", 20, 160, 3, 24), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := want.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fp, err := c.Fingerprint()
			if err != nil {
				t.Error(err)
			}
			got[i] = fp
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != wantFP {
			t.Fatalf("goroutine %d: fingerprint %s, want %s", i, fp, wantFP)
		}
	}
}

// WithInflatedSigma changes delay forms the netlist does not carry, so the
// copy must not share its base's identity — and must not clobber it.
func TestFingerprintInflatedSigma(t *testing.T) {
	c := tinyCircuit(t)
	base, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	inf, err := c.WithInflatedSigma(1.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inf.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got == base {
		t.Fatal("inflated copy shares its base's fingerprint")
	}
	if got != inflatedFingerprint(base, 1.1) {
		t.Fatal("inflated fingerprint is not derived from the base and factor")
	}
	other, err := c.WithInflatedSigma(1.2)
	if err != nil {
		t.Fatal(err)
	}
	if fp, _ := other.Fingerprint(); fp == got {
		t.Fatal("different inflation factors share a fingerprint")
	}
	if again, _ := c.Fingerprint(); again != base {
		t.Fatal("inflating changed the base circuit's fingerprint")
	}
}
