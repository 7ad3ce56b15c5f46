package main

import (
	"math"
	"testing"
)

func sampleRecs() [][]chipRec {
	return [][]chipRec{
		{
			{Iterations: 41, Configured: true, Passed: true, X: []float64{0, 0.125, -0.25}},
			{Iterations: 39, Configured: true, Passed: false, X: []float64{0.5, 0, 0}},
		},
		{
			{Iterations: 44, Configured: false, X: []float64{0, 0, 0}},
		},
	}
}

func digestOf(lots [][]chipRec) string {
	ds := make([][32]byte, len(lots))
	for i, l := range lots {
		ds[i] = lotDigest(l)
	}
	return runDigest(ds)
}

func TestPerturbedDigestFails(t *testing.T) {
	lots := sampleRecs()
	committed := committedDigests{"daemon-warm": {len(lots): digestOf(lots)}}
	if checked, err := checkDigest(committed, "daemon-warm", 1, len(lots), digestOf(sampleRecs())); !checked || err != nil {
		t.Fatalf("unchanged outputs: checked=%v err=%v, want a passing check", checked, err)
	}
	for name, perturb := range map[string]func([][]chipRec){
		"one ulp of X":   func(l [][]chipRec) { l[0][1].X[0] = math.Nextafter(l[0][1].X[0], 1) },
		"negative zero":  func(l [][]chipRec) { l[1][0].X[2] = math.Copysign(0, -1) },
		"iterations":     func(l [][]chipRec) { l[1][0].Iterations++ },
		"passed":         func(l [][]chipRec) { l[0][1].Passed = true },
		"configured":     func(l [][]chipRec) { l[1][0].Configured = true },
		"chip error":     func(l [][]chipRec) { l[0][0].Err = "boom" },
		"lot order":      func(l [][]chipRec) { l[0], l[1] = l[1], l[0] },
		"chip order":     func(l [][]chipRec) { l[0][0], l[0][1] = l[0][1], l[0][0] },
		"dropped chip":   func(l [][]chipRec) { l[0] = l[0][:1] },
		"shorter X":      func(l [][]chipRec) { l[0][0].X = l[0][0].X[:2] },
		"chip moved lot": func(l [][]chipRec) { l[1] = append(l[1], l[0][1]); l[0] = l[0][:1] },
	} {
		lots := sampleRecs()
		perturb(lots)
		checked, err := checkDigest(committed, "daemon-warm", 1, len(lots), digestOf(lots))
		if !checked || err == nil {
			t.Errorf("%s: checked=%v err=%v, want a failing check", name, checked, err)
		}
	}
}

func TestDigestCheckedOnlyForCommittedRuns(t *testing.T) {
	committed := committedDigests{"daemon-warm": {2: "00"}}
	for _, tc := range []struct {
		workload string
		seed     int64
		lots     int
	}{
		{"daemon-warm", 2, 2}, // another seed
		{"daemon-warm", 1, 3}, // another lot count
		{"daemon-cold", 1, 2}, // nothing committed
	} {
		if checked, err := checkDigest(committed, tc.workload, tc.seed, tc.lots, "ff"); checked || err != nil {
			t.Errorf("%+v: checked=%v err=%v, want no check", tc, checked, err)
		}
	}
}

func TestSameRecsReportsFirstDifference(t *testing.T) {
	a, b := sampleRecs()[0], sampleRecs()[0]
	if err := sameRecs(a, b); err != nil {
		t.Fatalf("identical lots differ: %v", err)
	}
	b[1].X[2] = math.Copysign(0, -1)
	if err := sameRecs(a, b); err == nil {
		t.Error("sign of zero in X not detected")
	}
	if err := sameRecs(a, b[:1]); err == nil {
		t.Error("missing chip not detected")
	}
}

// The committed digests must cover every workload at its full fixed lot
// count and at the smoke test's, or the seed-1 check silently never runs.
func TestCommittedDigestsCoverEveryWorkload(t *testing.T) {
	committed, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, lots := range []int{w.lots, smokeLots} {
			if d := committed[w.name][lots]; len(d) != 64 {
				t.Errorf("%s: committed digest over %d lots is %q, want a sha256", w.name, lots, d)
			}
		}
	}
	if len(committed) != len(workloads) {
		t.Errorf("%d committed digests for %d workloads", len(committed), len(workloads))
	}
}
