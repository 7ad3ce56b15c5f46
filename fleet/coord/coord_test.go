package coord_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"effitest"
	"effitest/fleet"
	"effitest/fleet/coord"
	"effitest/fleet/httpapi"
	"effitest/internal/conformance"
	"effitest/internal/yield"
)

// instantClock satisfies coord.Clock without sleeping: it records every
// requested delay so backoff tests assert the schedule, while the whole
// retry/rebalance suite finishes in milliseconds.
type instantClock struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (c *instantClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.slept = append(c.slept, d)
	c.mu.Unlock()
	return ctx.Err()
}

func (c *instantClock) delays() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}

// killSwitch fronts a daemon handler with an operator-controlled outage:
// once killed, every request is refused with 503 (a transient error, like
// a crashed daemon's load balancer would serve). Existing connections are
// cut separately via CloseClientConnections.
type killSwitch struct {
	inner http.Handler
	dead  atomic.Bool
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		http.Error(w, `{"error":"daemon down"}`, http.StatusServiceUnavailable)
		return
	}
	k.inner.ServeHTTP(w, r)
}

// testNode is one loopback daemon under coordinator control.
type testNode struct {
	m    *fleet.Manager
	ts   *httptest.Server
	kill *killSwitch
}

// die simulates the daemon's host dropping off the network: in-flight
// connections are cut and new ones refused.
func (n *testNode) die() {
	n.kill.dead.Store(true)
	n.ts.CloseClientConnections()
}

// coordToken is the bearer token every test daemon requires: the whole
// retry/rebalance suite runs with auth and rate limiting enabled, pinning
// that the production middleware never perturbs the merged stream.
const coordToken = "coord-test-token"

// startNodes boots n loopback daemons — auth and rate limiting on, like
// production. mk, when non-nil, supplies per-node manager options
// (index-addressed, so one node can carry a test backend).
func startNodes(t testing.TB, n int, mk func(i int) []fleet.ManagerOption) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		var opts []fleet.ManagerOption
		if mk != nil {
			opts = mk(i)
		}
		m, err := fleet.NewManager(opts...)
		if err != nil {
			t.Fatal(err)
		}
		ks := &killSwitch{inner: httpapi.New(m,
			httpapi.WithAuthToken(coordToken),
			httpapi.WithRateLimit(10000, 10000),
		)}
		nodes[i] = &testNode{m: m, ts: httptest.NewServer(ks), kill: ks}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.m.Shutdown(context.Background())
			nd.ts.Close()
		}
	})
	return nodes
}

func urlsOf(nodes []*testNode) []string {
	out := make([]string, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.ts.URL
	}
	return out
}

// tiny64Scenario picks the fast pipeline cell of the conformance matrix —
// the same scenario the golden corpus and the daemon loopback tests pin.
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

func tiny64Spec(sc conformance.Scenario) coord.Spec {
	return coord.Spec{
		Name: "coord-tiny64",
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
	}
}

// assertGolden checks the merged stream and summary against the in-process
// whole-population run: every deterministic wire field per chip, the
// aggregate, and the calibrated period — bit-identical, not approximate.
func assertGolden(t *testing.T, inproc *conformance.PipelineResult, got []httpapi.ChipResult, sum coord.Summary) {
	t.Helper()
	if len(got) != len(inproc.Outs) {
		t.Fatalf("merged %d results, in-process produced %d", len(got), len(inproc.Outs))
	}
	var agg yield.Agg
	for i, res := range got {
		if res.Error != "" {
			t.Fatalf("chip %d: merged error %s", i, res.Error)
		}
		want := httpapi.ResultWire(effitest.ChipResult{Index: i, Chip: inproc.Chips[i], Outcome: inproc.Outs[i]})
		if res.Index != want.Index || res.ChipIndex != want.ChipIndex ||
			res.Iterations != want.Iterations || res.ScanBits != want.ScanBits ||
			res.Configured != want.Configured || res.Passed != want.Passed ||
			res.Xi != want.Xi ||
			res.BoundsLoSum != want.BoundsLoSum || res.BoundsHiSum != want.BoundsHiSum {
			t.Fatalf("chip %d: merged result diverges from in-process run:\nmerged:     %+v\nin-process: %+v", i, res, want)
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
	st := agg.Stats()
	if sum.Chips != len(inproc.Outs) ||
		sum.Aggregate.Chips != len(inproc.Outs) ||
		sum.Aggregate.Yield != st.Yield ||
		sum.Aggregate.AvgIterations != st.AvgIterations ||
		sum.Aggregate.AvgScanBits != st.AvgScanBits ||
		sum.Aggregate.ConfiguredFrac != st.ConfiguredFrac {
		t.Fatalf("merged aggregate diverges:\nmerged:     %+v\nin-process: %+v", sum.Aggregate, st)
	}
	if sum.Period != inproc.Engine.Period() {
		t.Fatalf("merged period %v != in-process %v", sum.Period, inproc.Engine.Period())
	}
}

func collectResults(t *testing.T, run *coord.Run) []httpapi.ChipResult {
	t.Helper()
	var out []httpapi.ChipResult
	for res, err := range run.Results(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// A campaign sharded over three healthy daemons must merge back into the
// exact per-chip stream, aggregate, and period of a single in-process
// whole-population run.
func TestCoordinatedRunMatchesInProcessGolden(t *testing.T) {
	sc := tiny64Scenario(t)
	ctx := context.Background()
	inproc, err := conformance.RunPipeline(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}

	nodes := startNodes(t, 3, nil)
	co, err := coord.New(urlsOf(nodes), coord.WithClock(&instantClock{}), coord.WithAuthToken(coordToken))
	if err != nil {
		t.Fatal(err)
	}
	run, err := co.Start(ctx, tiny64Spec(sc))
	if err != nil {
		t.Fatal(err)
	}
	got := collectResults(t, run)
	sum, err := run.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, inproc, got, sum)

	if len(sum.Assignments) != 3 {
		t.Fatalf("expected 3 shard assignments, got %+v", sum.Assignments)
	}
	total := 0
	for _, a := range sum.Assignments {
		total += a.Count
	}
	if total != sc.Chips {
		t.Fatalf("assignments cover %d chips, want %d", total, sc.Chips)
	}
	if sum.Retries != 0 || sum.RebalancedChips != 0 || len(sum.DeadNodes) != 0 {
		t.Fatalf("healthy fleet recorded failures: %+v", sum)
	}
}

// gateBackend lets chips below the cut-off through and blocks every other
// session open until release is closed. Gating by chip identity (not
// arrival order) keeps the stall deterministic under worker scheduling.
// Delegates to the default simulated tester, so the chips that do run are
// numerically untouched.
type gateBackend struct {
	allowBelow int
	release    chan struct{}
}

func (g *gateBackend) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	if ch.Index >= g.allowBelow {
		<-g.release
	}
	return effitest.SimBackend{}.Open(ch, resolution)
}

// Killing a node mid-campaign must not change a single merged bit: its
// unfinished chips rebalance onto the survivors, already-delivered results
// are not re-emitted, and the merged stream + aggregate still equal the
// single-node golden run exactly.
func TestKillNodeMidCampaignStaysBitIdentical(t *testing.T) {
	sc := tiny64Scenario(t)
	ctx := context.Background()
	inproc, err := conformance.RunPipeline(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}

	// Node 0 completes exactly chips 0 and 1, then stalls — the classic
	// died-mid-campaign shape. Two workers everywhere keeps the /stats
	// weights equal, so the 16-chip population splits 6/5/5 and node 0's
	// shard is positions [0, 6).
	gate := &gateBackend{allowBelow: 2, release: make(chan struct{})}
	nodes := startNodes(t, 3, func(i int) []fleet.ManagerOption {
		opts := []fleet.ManagerOption{fleet.WithWorkers(2)}
		if i == 0 {
			reg, err := fleet.NewRegistry(fleet.WithEngineOptions(effitest.WithBackend(gate)))
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, fleet.WithRegistry(reg))
		}
		return opts
	})
	t.Cleanup(func() {
		select {
		case <-gate.release:
		default:
			close(gate.release)
		}
	})

	clock := &instantClock{}
	co, err := coord.New(urlsOf(nodes), coord.WithClock(clock), coord.WithAuthToken(coordToken))
	if err != nil {
		t.Fatal(err)
	}
	run, err := co.Start(ctx, tiny64Spec(sc))
	if err != nil {
		t.Fatal(err)
	}
	asg := run.Assignments()
	if len(asg) != 3 || asg[0].Node != nodes[0].ts.URL || asg[0].First != 0 {
		t.Fatalf("unexpected initial placement: %+v", asg)
	}

	// Consume the merged stream in order; once node 0's first two chips
	// have arrived, kill it and let the rebalance produce the rest.
	var got []httpapi.ChipResult
	for res, err := range run.Results(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
		if len(got) == 2 {
			nodes[0].die()
			close(gate.release) // unblock node 0's manager for cleanup
		}
	}
	sum, err := run.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, inproc, got, sum)

	if len(sum.DeadNodes) != 1 || sum.DeadNodes[0] != nodes[0].ts.URL {
		t.Fatalf("dead nodes = %v, want [%s]", sum.DeadNodes, nodes[0].ts.URL)
	}
	// Node 0 owned 6 chips and delivered at least the 2 gated ones before
	// dying; the remainder moved.
	if sum.RebalancedChips == 0 || sum.RebalancedChips > asg[0].Count-2 {
		t.Fatalf("rebalanced %d chips, want in [1, %d]", sum.RebalancedChips, asg[0].Count-2)
	}
	if sum.Retries == 0 {
		t.Fatal("losing a node should have recorded retry backoffs")
	}
	// Rebalanced spans land on survivors only.
	for _, a := range sum.Assignments[3:] {
		if a.Node == nodes[0].ts.URL {
			t.Fatalf("rebalanced span assigned to the dead node: %+v", a)
		}
	}
	// No wall-clock backoff: every sleep went through the fake clock.
	if len(clock.delays()) == 0 {
		t.Fatal("retries bypassed the injected clock")
	}
}

// failStream holds a daemon's result streams open until fail is closed,
// then refuses them with 400 — a permanent error that fails the whole run.
type failStream struct {
	inner http.Handler
	fail  chan struct{}
}

func (f *failStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/results") {
		f.inner.ServeHTTP(w, r)
		return
	}
	select {
	case <-f.fail:
	case <-r.Context().Done():
		return
	}
	http.Error(w, `{"error":"injected stream refusal"}`, http.StatusBadRequest)
}

// detachedStreams lets result-stream requests outlive their caller's
// context, so a shard runner reading a held-open stream stays live after
// its run fails and is cancelled.
type detachedStreams struct{ base http.RoundTripper }

func (d detachedStreams) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/results") {
		req = req.WithContext(context.WithoutCancel(req.Context()))
	}
	return d.base.RoundTrip(req)
}

// A run that fails still summarizes every chip it accepted: node 0 streams
// chips 0 and 1 and then holds its stream open (its other chips are gated
// at the tester, and the stream ignores the run's cancellation), node 1
// fails the run, and the summary's aggregate must count exactly the
// error-free results already merged — including node 0's, whose shard
// runner is still live when the summary is taken.
func TestFailedRunSummaryCountsAcceptedChips(t *testing.T) {
	sc := tiny64Scenario(t)
	ctx := context.Background()

	gate := &gateBackend{allowBelow: 2, release: make(chan struct{})}
	nodes := startNodes(t, 2, func(i int) []fleet.ManagerOption {
		opts := []fleet.ManagerOption{fleet.WithWorkers(2)}
		if i == 0 {
			reg, err := fleet.NewRegistry(fleet.WithEngineOptions(effitest.WithBackend(gate)))
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, fleet.WithRegistry(reg))
		}
		return opts
	})
	t.Cleanup(func() { close(gate.release) })
	refuse := &failStream{inner: nodes[1].kill.inner, fail: make(chan struct{})}
	nodes[1].kill.inner = refuse

	co, err := coord.New(urlsOf(nodes), coord.WithClock(&instantClock{}), coord.WithAuthToken(coordToken),
		coord.WithHTTPClient(&http.Client{Transport: detachedStreams{http.DefaultTransport}}))
	if err != nil {
		t.Fatal(err)
	}
	run, err := co.Start(ctx, tiny64Spec(sc))
	if err != nil {
		t.Fatal(err)
	}
	if asg := run.Assignments(); len(asg) != 2 || asg[0].Node != nodes[0].ts.URL || asg[0].First != 0 || asg[0].Count <= 2 {
		t.Fatalf("unexpected initial placement: %+v", asg)
	}

	var streamed []httpapi.ChipResult
	var runErr error
	for res, err := range run.Results(ctx) {
		if err != nil {
			runErr = err
			break
		}
		streamed = append(streamed, res)
		if len(streamed) == 2 {
			close(refuse.fail) // node 0 is now held open: fail the run from node 1
		}
	}
	if runErr == nil || len(streamed) != 2 {
		t.Fatalf("streamed %d results then %v, want 2 then the injected failure", len(streamed), runErr)
	}
	sum, err := run.Wait(ctx)
	if err == nil {
		t.Fatal("Wait reported success for a failed run")
	}
	var want yield.Agg
	for _, res := range streamed {
		if res.Error != "" {
			t.Fatalf("chip %d: %s", res.Index, res.Error)
		}
		want.Observe(&effitest.ChipOutcome{
			Iterations: res.Iterations, ScanBits: res.ScanBits,
			Configured: res.Configured, Passed: res.Passed,
		})
	}
	st := want.Stats()
	if sum.Chips != len(streamed) || sum.Aggregate.Chips != want.Chips ||
		sum.Aggregate.Yield != st.Yield || sum.Aggregate.AvgIterations != st.AvgIterations ||
		sum.Aggregate.AvgScanBits != st.AvgScanBits || sum.Aggregate.ConfiguredFrac != st.ConfiguredFrac {
		t.Fatalf("failed run summary %d chips, aggregate %+v; want %d chips aggregating to %+v",
			sum.Chips, sum.Aggregate, len(streamed), st)
	}
}

// countingPlans wraps a daemon handler counting plan uploads, to observe
// the coordinator's content-address dedup.
type countingPlans struct {
	inner   http.Handler
	uploads atomic.Int64
}

func (c *countingPlans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/plans" {
		c.uploads.Add(1)
	}
	c.inner.ServeHTTP(w, r)
}

// A pre-built plan artifact is pushed to each node exactly once across
// runs (content-address dedup), and plan-backed shards still reproduce the
// golden numbers.
func TestPlanPrePushDedup(t *testing.T) {
	sc := tiny64Scenario(t)
	ctx := context.Background()
	inproc, err := conformance.RunPipeline(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := effitest.EncodePlan(inproc.Engine.Plan())
	if err != nil {
		t.Fatal(err)
	}

	nodes := startNodes(t, 2, nil)
	counters := make([]*countingPlans, len(nodes))
	for i, nd := range nodes {
		counters[i] = &countingPlans{inner: nd.kill.inner}
		nd.kill.inner = counters[i]
	}

	co, err := coord.New(urlsOf(nodes), coord.WithClock(&instantClock{}), coord.WithAuthToken(coordToken))
	if err != nil {
		t.Fatal(err)
	}
	spec := tiny64Spec(sc)
	spec.Plan = artifact

	for round := 0; round < 2; round++ {
		run, err := co.Start(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		got := collectResults(t, run)
		sum, err := run.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertGolden(t, inproc, got, sum)
	}
	for i, c := range counters {
		if n := c.uploads.Load(); n != 1 {
			t.Fatalf("node %d received %d plan uploads over two runs, want exactly 1", i, n)
		}
	}
}

// A daemon that answers 503 a few times before recovering is retried with
// the policy's backoff — all through the injected clock — and the run
// still completes.
func TestTransientFailuresRetryThenSucceed(t *testing.T) {
	sc := tiny64Scenario(t)
	ctx := context.Background()

	nodes := startNodes(t, 1, nil)
	flaky := &failFirst{inner: nodes[0].kill.inner, failures: 3}
	nodes[0].kill.inner = flaky

	clock := &instantClock{}
	co, err := coord.New(urlsOf(nodes),
		coord.WithClock(clock),
		coord.WithAuthToken(coordToken),
		coord.WithRetryPolicy(coord.RetryPolicy{MaxAttempts: 5, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := tiny64Spec(sc)
	spec.Chips.Count = 4
	run, err := co.Start(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := run.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Chips != 4 || len(sum.DeadNodes) != 0 {
		t.Fatalf("flaky-node run did not settle cleanly: %+v", sum)
	}
	if sum.Retries != 3 {
		t.Fatalf("expected exactly 3 retries (one per injected 503), got %d", sum.Retries)
	}
	// Jitter is zero, so the backoff schedule is the exact doubling ramp.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	got := clock.delays()
	if len(got) != len(want) {
		t.Fatalf("slept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (all %v)", i, got[i], want[i], got)
		}
	}
}

// failFirst refuses its first `failures` requests with 503, then passes
// everything through.
type failFirst struct {
	inner    http.Handler
	mu       sync.Mutex
	failures int
}

func (f *failFirst) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// With every node down, Start fails with ErrNoHealthyNodes instead of
// hanging or burning wall-clock backoff.
func TestStartAllNodesDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close() // the port now refuses connections

	co, err := coord.New([]string{url},
		coord.WithClock(&instantClock{}),
		coord.WithRetryPolicy(coord.RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	sc := tiny64Scenario(t)
	_, err = co.Start(context.Background(), tiny64Spec(sc))
	if !errors.Is(err, coord.ErrNoHealthyNodes) {
		t.Fatalf("Start against a dead fleet: err = %v, want ErrNoHealthyNodes", err)
	}
}

// A spec every node would reject (4xx) fails the run fast — no retries, no
// rebalancing cascade.
func TestPermanentRejectionFailsFast(t *testing.T) {
	nodes := startNodes(t, 1, nil)
	clock := &instantClock{}
	co, err := coord.New(urlsOf(nodes), coord.WithClock(clock), coord.WithAuthToken(coordToken))
	if err != nil {
		t.Fatal(err)
	}
	sc := tiny64Scenario(t)
	spec := tiny64Spec(sc)
	spec.Config.Align = "bogus"
	run, err := co.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err) // health passes; the rejection surfaces on submit
	}
	sum, err := run.Wait(context.Background())
	if err == nil {
		t.Fatal("a universally-rejected spec should fail the run")
	}
	if sum.Retries != 0 || len(clock.delays()) != 0 {
		t.Fatalf("permanent rejection was retried: %d retries, sleeps %v", sum.Retries, clock.delays())
	}
	// The merged stream reports the same failure instead of hanging.
	for _, rerr := range run.Results(context.Background()) {
		if rerr == nil {
			t.Fatal("failed run yielded a result")
		}
	}
}

// Start validates the spec before touching the fleet.
func TestStartSpecValidation(t *testing.T) {
	co, err := coord.New([]string{"http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Start(context.Background(), coord.Spec{Chips: httpapi.ChipSpec{Count: 0}}); err == nil {
		t.Fatal("zero chip count accepted")
	}
	if _, err := co.Start(context.Background(), coord.Spec{Chips: httpapi.ChipSpec{Count: 4, First: -1}}); err == nil {
		t.Fatal("negative range start accepted")
	}
	if _, err := coord.New(nil); err == nil {
		t.Fatal("empty node pool accepted")
	}
}
