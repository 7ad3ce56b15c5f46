package fleet

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"effitest"
)

// outcomesEqual compares everything except wall-clock durations.
func outcomesEqual(a, b *effitest.ChipOutcome) bool {
	return a.Iterations == b.Iterations &&
		a.ScanBits == b.ScanBits &&
		a.Configured == b.Configured &&
		a.Passed == b.Passed &&
		a.Xi == b.Xi &&
		reflect.DeepEqual(a.X, b.X) &&
		reflect.DeepEqual(a.Bounds.Lo, b.Bounds.Lo) &&
		reflect.DeepEqual(a.Bounds.Hi, b.Bounds.Hi)
}

func newTestManager(t *testing.T, opts ...ManagerOption) *Manager {
	t.Helper()
	m, err := NewManager(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	return m
}

// A campaign's streamed results and aggregate stats must be bit-identical
// to running the same chips through Engine.RunChips in process.
func TestCampaignMatchesEngineRunChips(t *testing.T) {
	m := newTestManager(t, WithWorkers(4))
	c := tinyCircuit(t, "match", 3)
	ctx := context.Background()

	camp, err := m.Submit(CampaignSpec{
		Name: "lot-1", Circuit: c, Options: fastOpts(),
		ChipSeed: 11, ChipCount: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := camp.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state %s, err %v", st.State, st.Err)
	}

	eng, err := effitest.New(c, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	chips, err := eng.SampleChips(ctx, 11, 10)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for res := range camp.Results(ctx) {
		if res.Err != nil {
			t.Fatalf("chip %d: %v", res.Index, res.Err)
		}
		if res.Index != i {
			t.Fatalf("results out of order: got index %d at position %d", res.Index, i)
		}
		want, err := eng.RunChip(ctx, chips[i])
		if err != nil {
			t.Fatal(err)
		}
		if !outcomesEqual(res.Outcome, want) {
			t.Fatalf("chip %d: campaign outcome differs from Engine.RunChip", i)
		}
		i++
	}
	if i != 10 {
		t.Fatalf("streamed %d results, want 10", i)
	}

	want, err := eng.Yield(ctx, chips)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Stats
	if got.Yield != want.Yield || got.AvgIterations != want.AvgIterations ||
		got.AvgScanBits != want.AvgScanBits || got.ConfiguredFrac != want.ConfiguredFrac {
		t.Fatalf("aggregate stats diverge:\ncampaign: %+v\nengine:   %+v", got, want)
	}
	// A consumer attaching after completion sees the identical full stream.
	n := 0
	for res := range camp.Results(ctx) {
		if res.Index != n || res.Err != nil {
			t.Fatalf("replayed stream corrupt at %d", n)
		}
		n++
	}
	if n != 10 {
		t.Fatalf("replayed %d results, want 10", n)
	}
}

// Two campaigns for the same (circuit, configuration) must share one
// engine: exactly one Prepare no matter how many campaigns are in flight.
func TestCampaignsShareOnePrepare(t *testing.T) {
	m := newTestManager(t, WithWorkers(2))
	c := tinyCircuit(t, "shared", 3)
	ctx := context.Background()

	var camps []*Campaign
	for i := 0; i < 4; i++ {
		camp, err := m.Submit(CampaignSpec{
			Circuit: c, Options: fastOpts(),
			ChipSeed: int64(100 + i), ChipCount: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		camps = append(camps, camp)
	}
	for _, camp := range camps {
		if st, err := camp.Wait(ctx); err != nil || st.State != StateDone {
			t.Fatalf("campaign %s: state %v err %v", camp.ID(), st.State, err)
		}
	}
	st := m.Registry().Stats()
	if st.Prepares != 1 {
		t.Fatalf("expected exactly 1 Prepare across 4 concurrent campaigns, got %d", st.Prepares)
	}
	// One campaign built the engine; the other three were served it.
	if st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("registry served %d hits and %d misses, want 3 and 1: campaigns did not share the engine",
			st.Hits, st.Misses)
	}
}

// The workers' pick order must interleave one chip per campaign per turn —
// exercised white-box on nextJobLocked, which owns the round-robin.
func TestNextJobRoundRobin(t *testing.T) {
	a := &Campaign{id: "a", results: make([]*effitest.ChipResult, 3)}
	b := &Campaign{id: "b", results: make([]*effitest.ChipResult, 5)}
	m := &Manager{active: []*Campaign{a, b}}

	var order []string
	for {
		j, ok := m.nextJobLocked()
		if !ok {
			break
		}
		order = append(order, j.c.id)
	}
	want := []string{"a", "b", "a", "b", "a", "b", "b", "b"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	if a.nextDispatch != 3 || b.nextDispatch != 5 {
		t.Fatalf("dispatch counters %d/%d, want 3/5", a.nextDispatch, b.nextDispatch)
	}
}

// Fair scheduling end to end: with one worker, a small campaign submitted
// while a big one is mid-run still finishes first — round-robin shares the
// pool instead of draining the big queue FIFO.
func TestCampaignFairScheduling(t *testing.T) {
	m := newTestManager(t, WithWorkers(1))
	c := tinyCircuit(t, "fair", 3)
	ctx := context.Background()

	sb := &slowBackend{delay: 20 * time.Millisecond}
	opts := fastOpts(effitest.WithBackend(sb))

	big, err := m.Submit(CampaignSpec{Name: "big", Circuit: c, Options: opts, ChipSeed: 1, ChipCount: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Let the big campaign get rolling, then submit the small one.
	for big.Status().ChipsDone < 1 {
		time.Sleep(time.Millisecond)
	}
	small, err := m.Submit(CampaignSpec{Name: "small", Circuit: c, Options: opts, ChipSeed: 2, ChipCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	smallSt, err := small.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if smallSt.State != StateDone {
		t.Fatalf("small campaign state %s", smallSt.State)
	}
	if bigSt := big.Status(); bigSt.State == StateDone {
		t.Fatal("big campaign finished before the small one — scheduling is FIFO, not fair")
	}
	if st, err := big.Wait(ctx); err != nil || st.State != StateDone {
		t.Fatalf("big campaign: %v %v", st.State, err)
	}
}

// slowBackend stretches every session open so cancellation reliably lands
// mid-campaign.
type slowBackend struct {
	delay time.Duration
	opens atomic.Int64
	inner effitest.SimBackend
}

func (s *slowBackend) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	s.opens.Add(1)
	time.Sleep(s.delay)
	return s.inner.Open(ch, resolution)
}

// Cancelling a running campaign must drain without wedging: every chip
// resolves (outcome, context error, or ErrCampaignCancelled), the state
// settles as Cancelled, and the manager keeps serving other campaigns.
func TestCampaignCancelDrains(t *testing.T) {
	m := newTestManager(t, WithWorkers(2))
	c := tinyCircuit(t, "cancel", 3)
	ctx := context.Background()

	sb := &slowBackend{delay: 20 * time.Millisecond}
	camp, err := m.Submit(CampaignSpec{
		Circuit: c, Options: fastOpts(effitest.WithBackend(sb)),
		ChipSeed: 5, ChipCount: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let a few chips through, then cancel mid-flight.
	for camp.Status().ChipsDone < 2 {
		time.Sleep(time.Millisecond)
	}
	camp.Cancel()

	st, err := camp.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if st.ChipsDone != 40 {
		t.Fatalf("campaign did not drain: %d/40 chips resolved", st.ChipsDone)
	}
	var ok, cancelled int
	for res := range camp.Results(ctx) {
		switch {
		case res.Err == nil:
			ok++
		case errors.Is(res.Err, ErrCampaignCancelled) || errors.Is(res.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("chip %d: unexpected error %v", res.Index, res.Err)
		}
	}
	if ok == 0 || cancelled == 0 {
		t.Fatalf("expected a mix of outcomes and cancellations, got %d ok / %d cancelled", ok, cancelled)
	}

	// The pool is still healthy: a follow-up campaign completes.
	after, err := m.Submit(CampaignSpec{Circuit: c, Options: fastOpts(), ChipSeed: 6, ChipCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := after.Wait(ctx); err != nil || st.State != StateDone {
		t.Fatalf("post-cancel campaign: %v %v", st.State, err)
	}
}

// Shutdown mid-campaign drains in-flight chips, resolves the rest with
// ErrManagerClosed, and leaks no goroutines.
func TestManagerShutdownMidCampaignNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	m, err := NewManager(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	c := tinyCircuit(t, "shutdown", 3)
	sb := &slowBackend{delay: 20 * time.Millisecond}
	camp, err := m.Submit(CampaignSpec{
		Circuit: c, Options: fastOpts(effitest.WithBackend(sb)),
		ChipSeed: 5, ChipCount: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	for camp.Status().ChipsDone < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := camp.Status()
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if st.ChipsDone != 50 {
		t.Fatalf("shutdown did not settle the campaign: %d/50", st.ChipsDone)
	}
	sawClosed := false
	for res := range camp.Results(context.Background()) {
		if errors.Is(res.Err, ErrManagerClosed) {
			sawClosed = true
		}
	}
	if !sawClosed {
		t.Fatal("expected undispatched chips to carry ErrManagerClosed")
	}
	if _, err := m.Submit(CampaignSpec{Circuit: c, ChipCount: 1}); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("submit after shutdown: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked across shutdown: %d -> %d", before, now)
	}
}

// TestManagerGoroutineHighWater pins the Manager's concurrency to its
// worker budget: an 8-worker pool at GOMAXPROCS=8, with engines at the
// default Workers=0, runs each chip on its manager worker alone — no
// within-chip fan-out — so the live goroutine count stays within baseline
// + workers + a small constant while the campaign's chips execute. The
// sampler starts once the first chip is done: chip sampling fans out over
// the engine's workers before dispatch, just as Prepare does, and is not
// chip execution.
func TestManagerGoroutineHighWater(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const workers = 8
	c, err := effitest.Generate(effitest.NewProfile("hiwater", 64, 640, 6, 72), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Precondition: several correlation groups predict per chip, so a
	// per-group fan-out would show in the count.
	eng, err := effitest.New(c, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	tested := map[int]bool{}
	for _, p := range eng.Plan().Tested {
		tested[p] = true
	}
	predicting := 0
	for _, g := range eng.Plan().Groups {
		known := 0
		for _, p := range g.Paths {
			if tested[p] {
				known++
			}
		}
		if known > 0 && known < len(g.Paths) {
			predicting++
		}
	}
	if predicting < 2 {
		t.Fatalf("circuit has %d predicting groups; the test needs a multi-group circuit", predicting)
	}

	before := runtime.NumGoroutine()
	m := newTestManager(t, WithWorkers(workers))
	ctx := context.Background()
	// Warm the registry first, so the measured campaign skips Prepare and
	// period calibration (which fan out on their own, before any chip runs).
	warm, err := m.Submit(CampaignSpec{Circuit: c, Options: fastOpts(), ChipSeed: 7, ChipCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := warm.Wait(ctx); err != nil || st.State != StateDone {
		t.Fatalf("warm-up campaign: %v %v", st.State, err)
	}

	camp, err := m.Submit(CampaignSpec{Circuit: c, Options: fastOpts(), ChipSeed: 7, ChipCount: 300})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first chip to finish", func() bool { return camp.Status().ChipsDone > 0 })

	var peak atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()
	st, err := camp.Wait(ctx)
	close(stop)
	<-sampled
	if err != nil || st.State != StateDone {
		t.Fatalf("campaign: %v %v", st.State, err)
	}
	// The constant covers the campaign's prepare goroutine and the sampler
	// itself, with room to spare.
	const slack = 4
	if limit := int64(before + workers + slack); peak.Load() > limit {
		t.Fatalf("goroutine high water %d exceeds baseline %d + %d workers + %d", peak.Load(), before, workers, slack)
	}
}

// Shutdown is idempotent: sequential and concurrent repeat calls wait for
// the one drain instead of panicking on re-closed channels.
func TestManagerShutdownIdempotent(t *testing.T) {
	m, err := NewManager(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	c := tinyCircuit(t, "idem", 3)
	camp, err := m.Submit(CampaignSpec{Circuit: c, Options: fastOpts(), ChipSeed: 5, ChipCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := camp.Status(); !st.State.Terminal() {
		t.Fatalf("campaign not settled after shutdown: %s", st.State)
	}
}

// Shutdown executes only the chips already running on a worker: with every
// chip held at the tester, the two workers hold one chip each, those two
// finish once the gate opens, and every other chip resolves to
// ErrManagerClosed without executing.
func TestShutdownRunsOnlyWorkerChips(t *testing.T) {
	const workers, n = 2, 10
	m, err := NewManager(WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	c := tinyCircuit(t, "claimed", 3)
	gate := &gateBackend{release: make(chan struct{})} // holds every chip
	camp, err := m.Submit(CampaignSpec{
		Circuit: c, Options: fastOpts(effitest.WithBackend(gate)),
		ChipSeed: 5, ChipCount: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "workers to hold gated chips", func() bool {
		return m.Stats().ChipsInFlight >= workers
	})
	if got := m.Stats().ChipsInFlight; got > workers {
		t.Fatalf("%d chips in flight on %d workers", got, workers)
	}
	done := make(chan error, 1)
	go func() { done <- m.Shutdown(context.Background()) }()
	waitFor(t, "shutdown to cancel the campaign", func() bool {
		return camp.Status().State == StateCancelled
	})
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := m.Stats().ChipsExecuted; got != workers {
		t.Fatalf("ChipsExecuted = %d after shutdown, want %d (the workers' chips only)", got, workers)
	}
	closed := 0
	for res := range camp.Results(context.Background()) {
		if errors.Is(res.Err, ErrManagerClosed) {
			closed++
		}
	}
	if closed != n-workers {
		t.Fatalf("%d chips resolved to ErrManagerClosed, want %d", closed, n-workers)
	}
}

// A campaign cancelled before its population resolves still settles with
// a terminal state and a finish timestamp.
func TestCampaignCancelDuringPrepStamps(t *testing.T) {
	m := newTestManager(t)
	c := tinyCircuit(t, "prepcancel", 3)
	camp, err := m.Submit(CampaignSpec{Circuit: c, Options: fastOpts(), ChipSeed: 5, ChipCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	camp.Cancel()
	st, err := camp.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		t.Fatalf("state %s not terminal", st.State)
	}
	if st.FinishedAt.IsZero() {
		t.Fatal("terminal campaign has no finish timestamp")
	}
}

// A campaign whose engine construction fails settles as Failed with the
// error surfaced in Status, and streams no results.
func TestCampaignPrepFailure(t *testing.T) {
	m := newTestManager(t)
	c := tinyCircuit(t, "prepfail", 3)
	camp, err := m.Submit(CampaignSpec{Circuit: c, Options: []effitest.Option{effitest.WithEpsilon(-4)}, ChipCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := camp.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Err == nil {
		t.Fatalf("state %s err %v, want failed with error", st.State, st.Err)
	}
	for range camp.Results(context.Background()) {
		t.Fatal("failed campaign must stream no results")
	}
}

// A settled campaign keeps its results, not its engine: once Wait returns,
// the submitted circuit is unreachable although the campaign itself is
// still in the manager's table. That holds for a campaign that finished,
// one cancelled while a chip was in flight, and one whose engine was never
// built. WithBackend makes every engine here caller-private, so none sits
// in the registry's LRU, which keeps recent engines alive by design.
func TestSettledCampaignReleasesCircuit(t *testing.T) {
	m := newTestManager(t, WithWorkers(1))
	ctx := context.Background()

	// submit builds the circuit in its own frame, so the weak pointer is
	// the test's only reference to it once submit returns.
	submit := func(name string, h *holdBackend, extra ...effitest.Option) (*Campaign, weak.Pointer[effitest.Circuit]) {
		t.Helper()
		c := tinyCircuit(t, name, 3)
		opts := append([]effitest.Option{effitest.WithBackend(h)}, extra...)
		camp, err := m.Submit(CampaignSpec{Name: name, Circuit: c, Options: fastOpts(opts...), ChipSeed: 5, ChipCount: 6})
		if err != nil {
			t.Fatal(err)
		}
		return camp, weak.Make(c)
	}
	settle := func(camp *Campaign, want State) {
		t.Helper()
		st, err := camp.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != want {
			t.Fatalf("campaign %s settled %s (err %v), want %s", camp.Name(), st.State, st.Err, want)
		}
	}

	done, doneCircuit := submit("done", newHoldBackend())
	settle(done, StateDone)

	// The one worker blocks in chip 1's session open; cancelling then
	// settles the campaign with that chip still in flight, and releasing it
	// lets the chip deliver, the last event before the campaign finishes.
	h := newHoldBackend(1)
	cancelled, cancelledCircuit := submit("cancelled", h)
	<-h.held
	cancelled.Cancel()
	if st := cancelled.Status(); st.State != StateCancelled || !st.FinishedAt.IsZero() {
		t.Fatalf("cancel with a chip in flight: state %s, finished %v", st.State, st.FinishedAt)
	}
	close(h.release)
	settle(cancelled, StateCancelled)

	failed, failedCircuit := submit("failed", newHoldBackend(), effitest.WithPeriodQuantile(1.5, 100))
	settle(failed, StateFailed)

	// Two cycles: a plan's scratch sync.Pool, whose New closure holds the
	// plan and so the circuit, is reachable from the runtime's pool list
	// until one GC moves it to the victim list and the next drops it.
	runtime.GC()
	runtime.GC()
	for _, tc := range []struct {
		camp    *Campaign
		circuit weak.Pointer[effitest.Circuit]
	}{{done, doneCircuit}, {cancelled, cancelledCircuit}, {failed, failedCircuit}} {
		if tc.circuit.Value() != nil {
			t.Errorf("settled campaign %s still pins its circuit", tc.camp.Name())
		}
		if _, ok := m.Campaign(tc.camp.ID()); !ok {
			t.Errorf("campaign %s left the manager's table", tc.camp.Name())
		}
	}
	if st := done.Status(); st.ChipsDone != 6 || st.Period <= 0 {
		t.Fatalf("settled campaign lost its status: %d chips done, period %v", st.ChipsDone, st.Period)
	}
	n := 0
	for res := range done.Results(ctx) {
		if res.Err != nil || res.Outcome == nil || res.Index != n {
			t.Fatalf("settled campaign's result %d corrupt: %+v", n, res)
		}
		n++
	}
	if n != 6 {
		t.Fatalf("settled campaign streamed %d results, want 6", n)
	}
}

// weakBackend records a weak pointer to every chip it opens before handing
// the open to inner, so a test can count which opened chips are still
// alive without keeping any of them alive itself.
type weakBackend struct {
	inner effitest.Backend

	mu     sync.Mutex
	opened []weak.Pointer[effitest.Chip]
}

func (b *weakBackend) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	b.mu.Lock()
	b.opened = append(b.opened, weak.Make(ch))
	b.mu.Unlock()
	return b.inner.Open(ch, resolution)
}

// alive reports how many opened chips are still reachable, of how many
// were opened.
func (b *weakBackend) alive() (alive, opened int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range b.opened {
		if p.Value() != nil {
			alive++
		}
	}
	return alive, len(b.opened)
}

// A campaign samples each chip when a worker takes it and holds no
// population: with one worker held inside chip 20 of 2,000, the chips
// already run are garbage, and only the chip in flight is alive.
func TestCampaignHoldsNoPopulation(t *testing.T) {
	const n, held = 2000, 20
	m := newTestManager(t, WithWorkers(1))
	h := newHoldBackend(held)
	release := sync.OnceFunc(func() { close(h.release) })
	t.Cleanup(release) // before the manager's Shutdown, should a check fail
	b := &weakBackend{inner: h}
	camp, err := m.Submit(CampaignSpec{
		Name: "population", Circuit: tinyCircuit(t, "population", 3),
		Options: fastOpts(effitest.WithBackend(b)), ChipSeed: 7, ChipCount: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-h.held
	// Two cycles, so pooled scratch that might still point at a chip run
	// earlier is dropped from the pools' victim lists as well.
	runtime.GC()
	runtime.GC()
	alive, opened := b.alive()
	if opened != held+1 {
		t.Fatalf("opened %d chips before the held one, want %d", opened, held+1)
	}
	if alive > 1 {
		t.Fatalf("%d of %d opened chips alive while chip %d runs, want at most 1", alive, opened, held)
	}
	camp.Cancel()
	release()
	if st, err := camp.Wait(context.Background()); err != nil || st.State != StateCancelled || st.ChipsTotal != n {
		t.Fatalf("cancelled campaign: %v, %s, %d chips total", err, st.State, st.ChipsTotal)
	}
}
