package httpapi_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"effitest"
	"effitest/fleet"
	"effitest/fleet/client"
	"effitest/fleet/httpapi"
	"effitest/internal/conformance"
	"effitest/internal/yield"
)

// testToken is the bearer token every loopback test server requires: the
// conformance suite runs with auth and rate limiting ON, pinning that the
// production middleware does not perturb a single served byte.
const testToken = "loopback-test-token"

// newLoopback starts a manager and an HTTP loopback server around it —
// with auth, a generous rate limit, and metrics enabled — returning a
// client that authenticates. Cleanup shuts both down.
func newLoopback(t *testing.T, opts ...fleet.ManagerOption) (*fleet.Manager, *client.Client) {
	t.Helper()
	metrics := httpapi.NewMetrics()
	opts = append(opts, fleet.WithManagerObserver(metrics.Observer()))
	m, err := fleet.NewManager(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(m,
		httpapi.WithAuthToken(testToken),
		httpapi.WithRateLimit(10000, 10000),
		httpapi.WithMetrics(metrics),
	))
	t.Cleanup(func() {
		m.Shutdown(context.Background())
		ts.Close()
	})
	return m, cliFor(ts)
}

func cliFor(ts *httptest.Server) *client.Client {
	return client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithToken(testToken))
}

// tiny64Scenario picks the fast pipeline cell of the conformance matrix:
// the same scenario the golden corpus pins.
func tiny64Scenario(t *testing.T) conformance.Scenario {
	t.Helper()
	for _, sc := range conformance.DefaultMatrix() {
		if sc.Kind == conformance.KindPipeline && !sc.Heavy &&
			sc.Align.String() == "heuristic" && sc.Eps == 0.002 && sc.Seed == 1 {
			return sc
		}
	}
	t.Fatal("tiny64 pipeline scenario missing from the conformance matrix")
	return conformance.Scenario{}
}

// A campaign served over HTTP loopback must be bit-identical to running
// the same conformance scenario in process through Engine.RunChips: every
// per-chip field on the wire, and the aggregate, exactly.
func TestServedResultsMatchInProcessGolden(t *testing.T) {
	sc := tiny64Scenario(t)
	ctx := context.Background()
	inproc, err := conformance.RunPipeline(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}

	_, cl := newLoopback(t)
	st, err := cl.Submit(ctx, httpapi.CampaignRequest{
		Name: "golden-tiny64",
		Circuit: httpapi.CircuitSpec{
			Custom:  &httpapi.CustomProfile{Name: "tiny64", FFs: 64, Gates: 640, Buffers: 6, Paths: 72},
			GenSeed: sc.GenSeed,
		},
		Config: httpapi.ConfigSpec{
			Align:      "heuristic",
			Eps:        sc.Eps,
			Seed:       sc.Seed,
			Quantile:   sc.Quantile,
			CalibChips: sc.CalibChips,
		},
		Chips: httpapi.ChipSpec{Seed: sc.ChipSeed, Count: sc.Chips},
	})
	if err != nil {
		t.Fatal(err)
	}

	var got []httpapi.ChipResult
	for res, err := range cl.StreamResults(ctx, st.ID) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	if len(got) != len(inproc.Outs) {
		t.Fatalf("served %d results, in-process produced %d", len(got), len(inproc.Outs))
	}
	var agg yield.Agg
	for i, res := range got {
		if res.Error != "" {
			t.Fatalf("chip %d: served error %s", i, res.Error)
		}
		want := httpapi.ResultWire(effitest.ChipResult{Index: i, Outcome: inproc.Outs[i]}, inproc.Chips[i].Index)
		if res.Index != want.Index || res.ChipIndex != want.ChipIndex ||
			res.Iterations != want.Iterations || res.ScanBits != want.ScanBits ||
			res.Configured != want.Configured || res.Passed != want.Passed ||
			res.Xi != want.Xi ||
			res.BoundsLoSum != want.BoundsLoSum || res.BoundsHiSum != want.BoundsHiSum {
			t.Fatalf("chip %d: served result diverges from in-process run:\nserved:     %+v\nin-process: %+v", i, res, want)
		}
		if len(res.X) != len(want.X) {
			t.Fatalf("chip %d: X length %d != %d", i, len(res.X), len(want.X))
		}
		for j := range res.X {
			if res.X[j] != want.X[j] {
				t.Fatalf("chip %d: X[%d] = %v != %v", i, j, res.X[j], want.X[j])
			}
		}
		agg.Observe(inproc.Outs[i])
	}

	wantStats := agg.Stats()
	gotAgg, err := cl.Aggregate(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotAgg.Chips != len(inproc.Outs) ||
		gotAgg.Yield != wantStats.Yield ||
		gotAgg.AvgIterations != wantStats.AvgIterations ||
		gotAgg.AvgScanBits != wantStats.AvgScanBits ||
		gotAgg.ConfiguredFrac != wantStats.ConfiguredFrac {
		t.Fatalf("served aggregate diverges:\nserved:     %+v\nin-process: %+v", gotAgg, wantStats)
	}

	// The campaign's period must match the in-process calibration too.
	final, err := cl.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Period != inproc.Engine.Period() {
		t.Fatalf("served period %v != in-process %v", final.Period, inproc.Engine.Period())
	}
}

// An inline-netlist submission must land on the identical numbers: the
// netlist round-trip reconstructs the same circuit content, and the
// registry fingerprints it to the same engine key.
func TestSubmitInlineNetlist(t *testing.T) {
	ctx := context.Background()
	c, err := effitest.Generate(effitest.NewProfile("wire24", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := effitest.WriteNetlist(&sb, c); err != nil {
		t.Fatal(err)
	}

	eng, err := effitest.New(c, effitest.WithPeriodQuantile(0.8413, 100))
	if err != nil {
		t.Fatal(err)
	}
	chips, err := eng.SampleChips(ctx, 9, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Yield(ctx, chips)
	if err != nil {
		t.Fatal(err)
	}

	_, cl := newLoopback(t)
	st, err := cl.Submit(ctx, httpapi.CampaignRequest{
		Circuit: httpapi.CircuitSpec{Netlist: sb.String()},
		Config:  httpapi.ConfigSpec{Quantile: 0.8413, CalibChips: 100},
		Chips:   httpapi.ChipSpec{Seed: 9, Count: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := cl.Aggregate(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Yield != want.Yield || agg.AvgIterations != want.AvgIterations || agg.AvgScanBits != want.AvgScanBits {
		t.Fatalf("netlist-submitted aggregate %+v diverges from in-process %+v", agg, want)
	}
}

// slowBackend stretches every chip so shutdown and cancellation land
// mid-campaign.
type slowBackend struct {
	delay time.Duration
	inner effitest.SimBackend
}

func (s *slowBackend) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	time.Sleep(s.delay)
	return s.inner.Open(ch, resolution)
}

// submitSlow submits a campaign whose chips dawdle, directly on the
// manager (backends are not expressible on the wire).
func submitSlow(t *testing.T, m *fleet.Manager, chips int) *fleet.Campaign {
	t.Helper()
	c, err := effitest.Generate(effitest.NewProfile("slowd", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := m.Submit(fleet.CampaignSpec{
		Name:    "slow",
		Circuit: c,
		Options: []effitest.Option{
			effitest.WithPeriodQuantile(0.8413, 100),
			effitest.WithBackend(&slowBackend{delay: 20 * time.Millisecond}),
		},
		ChipSeed: 5, ChipCount: chips,
	})
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

// Shutting the daemon down mid-campaign — with a client attached to the
// result stream — must drain in-flight chips, settle the campaign and
// leak no goroutines.
func TestDaemonShutdownMidCampaignNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	m, err := fleet.NewManager(fleet.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(m))
	cl := cliFor(ts)

	camp := submitSlow(t, m, 60)
	streamed := make(chan int, 1)
	go func() {
		n := 0
		for _, err := range cl.StreamResults(context.Background(), camp.ID()) {
			if err != nil {
				break
			}
			n++
		}
		streamed <- n
	}()
	for camp.Status().ChipsDone < 2 {
		time.Sleep(time.Millisecond)
	}

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The manager settled every chip, so the NDJSON stream ends on its own
	// and carries all 60 results.
	select {
	case n := <-streamed:
		if n != 60 {
			t.Fatalf("stream ended with %d/60 results", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("result stream did not end after daemon shutdown")
	}
	if st := camp.Status(); st.State != fleet.StateCancelled || st.ChipsDone != 60 {
		t.Fatalf("campaign did not settle: state %s, %d/60", st.State, st.ChipsDone)
	}
	// New submissions are refused while draining/closed.
	if _, err := cl.Submit(context.Background(), httpapi.CampaignRequest{
		Circuit: httpapi.CircuitSpec{Profile: "s9234"},
		Chips:   httpapi.ChipSpec{Count: 1},
	}); err == nil {
		t.Fatal("submit after shutdown should fail")
	}
	ts.Close()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked across daemon shutdown: %d -> %d", before, now)
	}
}

// Cancelling over HTTP drains the campaign without wedging the pool.
func TestHTTPCancelDrains(t *testing.T) {
	m, cl := newLoopback(t, fleet.WithWorkers(2))
	camp := submitSlow(t, m, 40)
	ctx := context.Background()

	for camp.Status().ChipsDone < 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Cancel(ctx, camp.ID()); err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitSettled(ctx, camp.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != string(fleet.StateCancelled) || st.ChipsDone != 40 {
		t.Fatalf("cancel did not settle the campaign: %+v", st)
	}
	if st.ChipsFailed == 0 || st.ChipsFailed == 40 {
		t.Fatalf("expected a mix of completed and cancelled chips, got %d/40 failed", st.ChipsFailed)
	}
}

// Plan artifacts round-trip through upload/download byte-identically, and
// a campaign can run from an uploaded plan.
func TestPlanUploadDownloadAndRun(t *testing.T) {
	ctx := context.Background()
	c, err := effitest.Generate(effitest.NewProfile("planup", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := effitest.New(c, effitest.WithPeriodQuantile(0.8413, 100))
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := effitest.EncodePlan(eng.Plan())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := effitest.WriteNetlist(&sb, c); err != nil {
		t.Fatal(err)
	}

	_, cl := newLoopback(t)
	id, err := cl.UploadPlan(ctx, artifact)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cl.DownloadPlan(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(artifact) {
		t.Fatal("downloaded artifact differs from upload")
	}
	// Re-upload is idempotent (content-addressed).
	id2, err := cl.UploadPlan(ctx, artifact)
	if err != nil || id2 != id {
		t.Fatalf("re-upload: id %s vs %s, err %v", id2, id, err)
	}

	st, err := cl.Submit(ctx, httpapi.CampaignRequest{
		Circuit: httpapi.CircuitSpec{Netlist: sb.String()},
		Config:  httpapi.ConfigSpec{Quantile: 0.8413, CalibChips: 100},
		Chips:   httpapi.ChipSpec{Seed: 9, Count: 4},
		PlanID:  id,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSettled(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != string(fleet.StateDone) {
		t.Fatalf("plan-backed campaign state %s (err %s)", final.State, final.Error)
	}

	// Garbage uploads are rejected.
	if _, err := cl.UploadPlan(ctx, []byte("not a plan")); err == nil {
		t.Fatal("invalid plan artifact accepted")
	}
}

// mixedStepNetlist returns a valid netlist with its second buffer line's
// step count changed to 7. One lattice describes every buffer of a
// circuit, so the netlist is invalid.
func mixedStepNetlist(t *testing.T) string {
	t.Helper()
	c, err := effitest.Generate(effitest.NewProfile("wire24", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := effitest.WriteNetlist(&sb, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	buffers := 0
	for i, ln := range lines {
		if strings.HasPrefix(ln, "buffer ") {
			if buffers++; buffers == 2 {
				lines[i] = ln[:strings.LastIndexByte(ln, ' ')] + " 7"
			}
		}
	}
	if buffers < 2 {
		t.Fatalf("netlist has %d buffer lines, want at least 2", buffers)
	}
	return strings.Join(lines, "\n")
}

// noCircuitLineNetlist is a valid netlist without its circuit line: the
// circuit has no name, so its serialized form would not parse again.
const noCircuitLineNetlist = "effitest-netlist v1\nffs 4\nsetup 0.02\nhold 0.02\ntnominal 1\n" +
	"variation 2 2 .1 .1 .1 .25 1.2 .5 .4 .7 .03\n" +
	"buffer 0 -0.06 0.06 20\nbuffer 2 -0.06 0.06 20\n" +
	"gate 0 0 0 0.5\ngate 1 1 1 0.5\npath 0 1 0 0 0.4 0\npath 1 3 2 0 0.4 1\nend\n"

// mixedWidthNetlist is a valid netlist except that its two buffers share
// the step count but not the range width, so no one lattice describes
// both.
const mixedWidthNetlist = "effitest-netlist v1\ncircuit widths\nffs 4\nsetup 0.02\nhold 0.02\ntnominal 1\n" +
	"variation 2 2 .1 .1 .1 .25 1.2 .5 .4 .7 .03\n" +
	"buffer 0 -0.05 0.05 20\nbuffer 2 -0.06 0.06 20\n" +
	"gate 0 0 0 0.5\ngate 1 1 1 0.5\npath 0 1 0 0 0.4 0\npath 1 3 2 0 0.4 1\nend\n"

// Bad requests surface as client errors (HTTP 400), not hung campaigns.
func TestSubmitValidation(t *testing.T) {
	_, cl := newLoopback(t)
	ctx := context.Background()

	cases := []httpapi.CampaignRequest{
		{}, // no circuit
		{Circuit: httpapi.CircuitSpec{Profile: "nope"}},                // unknown profile
		{Circuit: httpapi.CircuitSpec{Profile: "s9234"}},               // no chips
		{Circuit: httpapi.CircuitSpec{Profile: "s9234", Netlist: "x"}}, // ambiguous
		{Circuit: httpapi.CircuitSpec{Profile: "s9234"}, Config: httpapi.ConfigSpec{Align: "bogus"}, Chips: httpapi.ChipSpec{Count: 1}},
		{Circuit: httpapi.CircuitSpec{Netlist: mixedStepNetlist(t)}, Chips: httpapi.ChipSpec{Count: 1}},
		{Circuit: httpapi.CircuitSpec{Netlist: mixedWidthNetlist}, Chips: httpapi.ChipSpec{Count: 1}},
		{Circuit: httpapi.CircuitSpec{Netlist: noCircuitLineNetlist}, Chips: httpapi.ChipSpec{Count: 1}},
		// The range's end overflows int: its manufacturing indices would wrap negative.
		{Circuit: httpapi.CircuitSpec{Profile: "s9234"}, Chips: httpapi.ChipSpec{First: math.MaxInt, Count: 2}},
	}
	for i, req := range cases {
		_, err := cl.Submit(ctx, req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: err %v, want HTTP 400", i, err)
		}
	}
	if _, err := cl.Status(ctx, "c999999"); err == nil {
		t.Fatal("unknown campaign id should 404")
	}
	var errNotFound error
	_, errNotFound = cl.Aggregate(ctx, "c999999")
	if errNotFound == nil {
		t.Fatal("unknown campaign aggregate should 404")
	}
	if _, err := cl.DownloadPlan(ctx, "deadbeef"); err == nil {
		t.Fatal("unknown plan id should 404")
	}
	if errors.Is(errNotFound, context.Canceled) {
		t.Fatal("unexpected context error")
	}
}
