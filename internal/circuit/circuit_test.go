package circuit

import (
	"bytes"
	"math"
	"testing"

	"effitest/internal/ssta"
)

func tinyCircuit(t *testing.T) *Circuit {
	t.Helper()
	p := TinyProfile("tiny", 20, 160, 3, 24)
	c, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateMatchesProfileCounts(t *testing.T) {
	for _, p := range []Profile{
		TinyProfile("a", 20, 160, 3, 24),
		TinyProfile("b", 50, 400, 5, 60),
	} {
		c, err := Generate(p, 7)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if c.NumFF != p.NumFF {
			t.Errorf("%s: ffs %d != %d", p.Name, c.NumFF, p.NumFF)
		}
		if c.NumGates() != p.NumGates {
			t.Errorf("%s: gates %d != %d", p.Name, c.NumGates(), p.NumGates)
		}
		if c.NumBuffers() != p.NumBuffers {
			t.Errorf("%s: buffers %d != %d", p.Name, c.NumBuffers(), p.NumBuffers)
		}
		if c.NumPaths() != p.NumPaths {
			t.Errorf("%s: paths %d != %d", p.Name, c.NumPaths(), p.NumPaths)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := TinyProfile("det", 20, 160, 3, 24)
	a, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.TNominal != b.TNominal {
		t.Fatal("same seed produced different TNominal")
	}
	for i := range a.Paths {
		if a.Paths[i].Max.Mean != b.Paths[i].Max.Mean || a.Paths[i].From != b.Paths[i].From {
			t.Fatalf("path %d differs between identical seeds", i)
		}
	}
	c, err := Generate(p, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Paths {
		if a.Paths[i].Max.Mean != c.Paths[i].Max.Mean {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical circuits")
	}
}

func TestGenerateEveryPathTouchesBuffer(t *testing.T) {
	c := tinyCircuit(t)
	for _, p := range c.Paths {
		if !c.IsBuffered(p.From) && !c.IsBuffered(p.To) {
			t.Fatalf("path %d touches no buffer", p.ID)
		}
	}
}

func TestGenerateClusterCorrelationStructure(t *testing.T) {
	// A cluster is a pipeline of regions: paths in the same region are very
	// highly correlated (they drive statistical prediction), while paths in
	// different regions — even of the same cluster — see different regional
	// variation (that imbalance is what tuning exploits). So: many
	// near-perfectly correlated pairs must exist inside clusters, and
	// cross-cluster correlation must sit clearly below them.
	c := tinyCircuit(t)
	corr := c.CorrMatrix()
	var intraHi int // same-cluster pairs with corr >= 0.9 (region mates)
	var sumOut float64
	var nOut int
	for i := 0; i < len(c.Paths); i++ {
		for j := i + 1; j < len(c.Paths); j++ {
			if c.Paths[i].Cluster == c.Paths[j].Cluster {
				if corr[i][j] >= 0.9 {
					intraHi++
				}
			} else {
				sumOut += corr[i][j]
				nOut++
			}
		}
	}
	if intraHi < len(c.Paths)/2 {
		t.Errorf("only %d high-correlation intra-cluster pairs; prediction needs region mates", intraHi)
	}
	if nOut > 0 {
		if avgOut := sumOut / float64(nOut); avgOut > 0.7 {
			t.Errorf("cross-cluster correlation %v too high; clusters not separated", avgOut)
		}
	}
}

func TestGeneratePathSigmaReasonable(t *testing.T) {
	c := tinyCircuit(t)
	for _, p := range c.Paths {
		rel := p.Max.Sigma() / p.Max.Mean
		if rel < 0.03 || rel > 0.25 {
			t.Fatalf("path %d relative sigma %v outside sane band", p.ID, rel)
		}
	}
}

func TestGenerateBufferRange(t *testing.T) {
	c := tinyCircuit(t)
	tau := c.TNominal / 8
	for _, b := range c.Buffered {
		if math.Abs((c.Buf.Hi[b]-c.Buf.Lo[b])-tau) > 1e-9 {
			t.Fatalf("buffer range %v, want τ = %v", c.Buf.Hi[b]-c.Buf.Lo[b], tau)
		}
	}
	if c.Buf.Steps != 20 {
		t.Fatalf("steps = %d, want 20", c.Buf.Steps)
	}
}

// A buffer without a lattice is not a circuit the tester can realize: the
// generator must refuse it rather than hand the solvers a continuous range.
func TestGenerateRejectsZeroBufferSteps(t *testing.T) {
	for _, steps := range []int{0, -3} {
		cfg := DefaultGenConfig()
		cfg.BufferSteps = steps
		if _, err := GenerateWith(TinyProfile("tiny", 20, 160, 3, 24), 1, cfg); err == nil {
			t.Errorf("BufferSteps %d: generator accepted a buffer without a lattice", steps)
		}
	}
}

// The buffers share one lattice, so Validate refuses a circuit whose
// buffers share the step count but not the range width, and accepts one
// whose widths differ only by rounding.
func TestValidateRejectsMixedBufferWidths(t *testing.T) {
	c := tinyCircuit(t)
	f := c.Buffered[len(c.Buffered)-1]
	lo, hi := c.Buf.Lo[f], c.Buf.Hi[f]
	c.Buf.Hi[f] = hi + 1e-13
	if err := c.Validate(); err != nil {
		t.Fatalf("width differing by 1e-13 rejected: %v", err)
	}
	c.Buf.Lo[f], c.Buf.Hi[f] = lo/2, hi/2
	if err := c.Validate(); err == nil {
		t.Fatal("buffer of half the others' range width accepted")
	}
}

func TestCovMatrixConsistency(t *testing.T) {
	c := tinyCircuit(t)
	cov := c.CovMatrix()
	for i := range c.Paths {
		if math.Abs(cov[i][i]-c.Paths[i].Max.Var()) > 1e-9 {
			t.Fatalf("diag %d: %v vs %v", i, cov[i][i], c.Paths[i].Max.Var())
		}
		for j := range c.Paths {
			if math.Abs(cov[i][j]-cov[j][i]) > 1e-12 {
				t.Fatal("cov not symmetric")
			}
		}
	}
	corr := c.CorrMatrix()
	for i := range c.Paths {
		if corr[i][i] != 1 {
			t.Fatal("corr diagonal must be 1")
		}
		for j := range c.Paths {
			if corr[i][j] < -1-1e-9 || corr[i][j] > 1+1e-9 {
				t.Fatalf("corr[%d][%d] = %v out of range", i, j, corr[i][j])
			}
		}
	}
}

func TestWithInflatedSigma(t *testing.T) {
	c := tinyCircuit(t)
	inf, err := c.WithInflatedSigma(1.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Paths {
		want := 1.1 * c.Paths[i].Max.Sigma()
		if got := inf.Paths[i].Max.Sigma(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("path %d sigma %v, want %v", i, got, want)
		}
		// Covariance (correlated part) unchanged.
		for j := i + 1; j < len(c.Paths); j++ {
			if math.Abs(ssta.Cov(inf.Paths[i].Max, inf.Paths[j].Max)-ssta.Cov(c.Paths[i].Max, c.Paths[j].Max)) > 1e-12 {
				t.Fatal("covariance changed by sigma inflation")
			}
		}
	}
	// Original untouched.
	if c.Paths[0].Max.Sigma() == inf.Paths[0].Max.Sigma() {
		t.Fatal("original circuit mutated")
	}
	if _, err := c.WithInflatedSigma(0.9); err == nil {
		t.Fatal("deflation should be rejected")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{Name: "", NumFF: 10, NumGates: 100, NumBuffers: 1, NumPaths: 5},
		{Name: "x", NumFF: 1, NumGates: 100, NumBuffers: 1, NumPaths: 5},
		{Name: "x", NumFF: 10, NumGates: 100, NumBuffers: 10, NumPaths: 5},
		{Name: "x", NumFF: 10, NumGates: 100, NumBuffers: 0, NumPaths: 5},
		{Name: "x", NumFF: 10, NumGates: 8, NumBuffers: 1, NumPaths: 5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d should be invalid", i)
		}
	}
	for _, p := range Table1Profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("published profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("s9234")
	if !ok || p.NumFF != 211 || p.NumGates != 5597 || p.NumBuffers != 2 || p.NumPaths != 80 {
		t.Fatalf("s9234 lookup wrong: %+v ok=%v", p, ok)
	}
	if _, ok := ProfileByName("nonexistent"); ok {
		t.Fatal("bogus name should not resolve")
	}
}

func TestNetlistRoundTrip(t *testing.T) {
	c := tinyCircuit(t)
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ParseNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name || got.NumFF != c.NumFF || got.NumGates() != c.NumGates() ||
		got.NumPaths() != c.NumPaths() || got.NumBuffers() != c.NumBuffers() {
		t.Fatal("counts differ after round trip")
	}
	if got.TNominal != c.TNominal || got.SetupTime != c.SetupTime || got.HoldTime != c.HoldTime {
		t.Fatal("scalars differ after round trip")
	}
	for i := range c.Paths {
		a, b := c.Paths[i], got.Paths[i]
		if a.From != b.From || a.To != b.To || a.Cluster != b.Cluster {
			t.Fatalf("path %d structure differs", i)
		}
		if math.Abs(a.Max.Mean-b.Max.Mean) > 1e-12 || math.Abs(a.Max.Sigma()-b.Max.Sigma()) > 1e-12 {
			t.Fatalf("path %d canonical differs: %v/%v vs %v/%v", i,
				a.Max.Mean, a.Max.Sigma(), b.Max.Mean, b.Max.Sigma())
		}
		if math.Abs(a.Min.Mean-b.Min.Mean) > 1e-12 {
			t.Fatalf("path %d min delay differs", i)
		}
	}
	if len(got.Exclusive) != len(c.Exclusive) {
		t.Fatal("exclusive pairs differ")
	}
}

func TestParseNetlistErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus header\nend\n",
		"effitest-netlist v1\nunknowndirective x\nend\n",
		"effitest-netlist v1\ncircuit x\n",           // missing end
		"effitest-netlist v1\ngate 5 0 0 0.1\nend\n", // non-dense gate ids
	}
	for i, s := range cases {
		if _, err := ParseNetlist(bytes.NewBufferString(s)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := tinyCircuit(t)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Circuit){
		func(c *Circuit) { c.Paths[0].From = c.Paths[0].To },
		func(c *Circuit) { c.Paths[0].Gates = []int{99999} },
		func(c *Circuit) { c.Paths[0].ID = 5 },
		func(c *Circuit) { c.TNominal = -1 },
		func(c *Circuit) { c.Exclusive = append(c.Exclusive, [2]int{0, 0}) },
		func(c *Circuit) { c.Gates[0].Nominal = -1 },
		func(c *Circuit) {
			// Point a path at two unbuffered FFs.
			var u1, u2 int = -1, -1
			for ff := 0; ff < c.NumFF; ff++ {
				if !c.IsBuffered(ff) {
					if u1 < 0 {
						u1 = ff
					} else {
						u2 = ff
						break
					}
				}
			}
			c.Paths[0].From, c.Paths[0].To = u1, u2
		},
	}
	for i, mut := range mutations {
		cc := tinyCircuit(t)
		mut(cc)
		if err := cc.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestLoadingRuns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		coef []float64
		want []Run
	}{
		{nil, nil},
		{[]float64{0, negZero, 0}, nil},
		{[]float64{1, 2, 3}, []Run{{0, 3}}},
		{[]float64{0, 1, 2, 0, negZero, 3, 0}, []Run{{1, 3}, {5, 6}}},
		{[]float64{negZero, 1, negZero, 2}, []Run{{1, 2}, {3, 4}}},
	} {
		got := nonzeroRuns(tc.coef)
		if len(got) != len(tc.want) {
			t.Fatalf("nonzeroRuns(%v) = %v, want %v", tc.coef, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("nonzeroRuns(%v) = %v, want %v", tc.coef, got, tc.want)
			}
		}
	}

	c := tinyCircuit(t)
	runs := c.LoadingRuns()
	if again := c.LoadingRuns(); &again[0] != &runs[0] {
		t.Fatal("LoadingRuns is not memoised")
	}
	covers := func(coef []float64, rs []Run) bool {
		in := make([]bool, len(coef))
		for _, r := range rs {
			for k := r.Lo; k < r.Hi; k++ {
				in[k] = true
			}
		}
		for k, v := range coef {
			if in[k] != (v != 0) {
				return false
			}
		}
		return true
	}
	for i, p := range c.Paths {
		if !covers(p.Max.Coef, runs[i].Max) || !covers(p.Min.Coef, runs[i].Min) {
			t.Fatalf("path %d: runs %v do not cover exactly its nonzero loadings", i, runs[i])
		}
	}
}
