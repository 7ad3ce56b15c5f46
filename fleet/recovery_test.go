package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"effitest"
	"effitest/fleet/journal"
)

// gateBackend delegates to the simulated ATE but blocks session opens for
// chips at or past a threshold until released — freezing a campaign
// mid-flight so tests can "crash" it at a known boundary. Because the
// backend only delays (never alters) measurement, gated runs stay
// bit-identical to plain SimBackend runs.
type gateBackend struct {
	allowBelow int
	release    chan struct{}
	inner      effitest.SimBackend
}

func (g *gateBackend) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	if ch.Index >= g.allowBelow {
		<-g.release
	}
	return g.inner.Open(ch, resolution)
}

// testDecoder returns a Recover decoder that hands back the given spec for
// the payload Submit journaled — the in-process stand-in for
// httpapi.SpecDecoder.
func testDecoder(spec CampaignSpec) func([]byte) (CampaignSpec, error) {
	return func(payload []byte) (CampaignSpec, error) {
		if string(payload) != string(spec.JournalPayload) {
			return CampaignSpec{}, errors.New("unexpected journal payload")
		}
		return spec, nil
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoverBitIdentical is the package-level crash drill: a journaled
// campaign is killed mid-flight (journal closed — a crash leaves exactly
// this on disk), a second manager recovers the directory, and the resumed
// campaign's every result and aggregate stat must equal an uninterrupted
// run bit for bit, with the journaled chips replayed, not re-executed.
func TestRecoverBitIdentical(t *testing.T) {
	const n = 12
	const gated = 6
	c := tinyCircuit(t, "recover", 3)
	ctx := context.Background()

	// Uninterrupted reference run.
	ref := newTestManager(t, WithWorkers(2))
	refCamp, err := ref.Submit(CampaignSpec{
		Name: "ref", Circuit: c, Options: fastOpts(), ChipSeed: 11, ChipCount: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := refCamp.Wait(ctx)
	if err != nil || refSt.State != StateDone {
		t.Fatalf("reference run: %v, %v", refSt.State, err)
	}

	// Crash run: first `gated` chips execute, the rest block in the
	// backend. Closing the journal at that point is the crash — everything
	// already acknowledged is on disk, nothing later is.
	dir := t.TempDir()
	j1, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateBackend{allowBelow: gated, release: make(chan struct{})}
	m1 := newTestManager(t, WithWorkers(2), WithJournal(j1))
	spec := CampaignSpec{
		Name: "crashy", Key: "lot-42", Circuit: c,
		Options:  fastOpts(effitest.WithBackend(gate)),
		ChipSeed: 11, ChipCount: n,
		JournalPayload: []byte(`{"campaign":"crashy"}`),
	}
	camp1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gated chips to journal", func() bool {
		return j1.Stats().Records >= 1+gated // spec + the ungated chips
	})
	if err := j1.Close(); err != nil { // the crash
		t.Fatal(err)
	}
	close(gate.release) // let the doomed process drain away
	if st, err := camp1.Wait(ctx); err != nil || st.State != StateDone {
		t.Fatalf("crash-run campaign: %v, %v", st.State, err)
	}
	m1.Shutdown(ctx)

	// Recovery boot: same directory, fresh journal and manager. The
	// decoder returns the spec without the gate — the recovered campaign
	// executes the missing chips on the plain simulated ATE.
	j2, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	cleanSpec := spec
	cleanSpec.Options = fastOpts()
	m2 := newTestManager(t, WithWorkers(2), WithJournal(j2))
	rs, err := m2.Recover(testDecoder(cleanSpec))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Campaigns != 1 || rs.Settled != 0 || rs.Skipped != 0 {
		t.Fatalf("recover stats: %+v", rs)
	}
	if rs.ChipsReplayed != gated {
		t.Fatalf("replayed %d chips from the journal, want %d", rs.ChipsReplayed, gated)
	}

	camp2, ok := m2.Campaign(camp1.ID())
	if !ok {
		t.Fatalf("recovered campaign lost its ID %s", camp1.ID())
	}
	if byKey, ok := m2.CampaignByKey("lot-42"); !ok || byKey != camp2 {
		t.Fatal("recovered campaign lost its idempotency key")
	}
	st2, err := camp2.Wait(ctx)
	if err != nil || st2.State != StateDone {
		t.Fatalf("recovered campaign: %v, %v", st2.State, err)
	}

	// Replayed, not re-executed: the second manager ran only the chips the
	// crash lost.
	ms := m2.Stats()
	if ms.ChipsReplayed != int64(gated) {
		t.Fatalf("ChipsReplayed = %d, want %d", ms.ChipsReplayed, gated)
	}
	if ms.ChipsExecuted != int64(n-gated) {
		t.Fatalf("ChipsExecuted = %d, want %d (replayed chips must not re-run)", ms.ChipsExecuted, n-gated)
	}
	if ms.CampaignsRecovered != 1 {
		t.Fatalf("CampaignsRecovered = %d, want 1", ms.CampaignsRecovered)
	}

	// Bit-identity, result by result and in the aggregate.
	want := map[int]*effitest.ChipResult{}
	for res := range refCamp.Results(ctx) {
		r := res
		want[res.Index] = &r
	}
	got := 0
	for res := range camp2.Results(ctx) {
		w := want[res.Index]
		if w == nil || res.Err != nil || w.Err != nil {
			t.Fatalf("chip %d: unexpected result %+v", res.Index, res.Err)
		}
		if !outcomesEqual(res.Outcome, w.Outcome) {
			t.Fatalf("chip %d: recovered outcome differs from uninterrupted run", res.Index)
		}
		got++
	}
	if got != n {
		t.Fatalf("recovered stream has %d results, want %d", got, n)
	}
	if a, b := st2.Stats, refSt.Stats; a.Yield != b.Yield || a.AvgIterations != b.AvgIterations ||
		a.AvgScanBits != b.AvgScanBits || a.ConfiguredFrac != b.ConfiguredFrac {
		t.Fatalf("recovered aggregate diverges:\nrecovered: %+v\nreference: %+v", a, b)
	}

	// The campaign settled on the recovery boot: its segment compacted.
	if js := j2.Stats(); js.Compactions != 1 || js.OpenSegments != 0 {
		t.Fatalf("journal after recovery run: %+v", js)
	}
}

// TestWaitCoversJournalSettle pins Wait's journal contract: once Wait
// returns on a journaled campaign, its settle record is written and its
// segment compacted. The journal fsyncs, which widens the window between
// the last chip's delivery and the settle write; under the race detector a
// hundred lots reliably hit it when Wait only covered the delivery.
func TestWaitCoversJournalSettle(t *testing.T) {
	const lots = 100
	c := tinyCircuit(t, "waitsettle", 3)
	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, WithWorkers(2), WithJournal(j))
	for i := 1; i <= lots; i++ {
		camp, err := m.Submit(CampaignSpec{
			Name: "settle", Circuit: c, Options: fastOpts(), ChipSeed: int64(i), ChipCount: 2,
			JournalPayload: []byte(`{}`),
		})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := camp.Wait(context.Background()); err != nil || st.State != StateDone {
			t.Fatalf("lot %d: %v, %v", i, st.State, err)
		}
		if js := j.Stats(); js.Compactions != int64(i) || js.OpenSegments != 0 {
			t.Fatalf("lot %d: Wait returned before the settle record: %+v", i, js)
		}
	}
}

// holdBackend delegates to the simulated ATE but blocks session opens for
// the chip indices in hold until release closes, announcing each blocked
// chip on held (buffered, so announcing never blocks).
type holdBackend struct {
	hold    map[int]bool
	held    chan int
	release chan struct{}
	inner   effitest.SimBackend
}

func newHoldBackend(chips ...int) *holdBackend {
	h := &holdBackend{hold: map[int]bool{}, held: make(chan int, len(chips)), release: make(chan struct{})}
	for _, i := range chips {
		h.hold[i] = true
	}
	return h
}

func (h *holdBackend) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	if h.hold[ch.Index] {
		h.held <- ch.Index
		<-h.release
	}
	return h.inner.Open(ch, resolution)
}

// TestStatsCountsReplayedChipsBySlot: a recovered campaign whose journaled
// chips are not a prefix of its chip list ({0,1,3} of 8) must report the
// dispatched-but-unfinished chip as in flight and only the unresolved tail
// as pending — replayed chips past the dispatch cursor are neither.
func TestStatsCountsReplayedChipsBySlot(t *testing.T) {
	const n = 8
	c := tinyCircuit(t, "gapped", 3)
	ctx := context.Background()

	// Crash run: two workers finish chips 0, 1 and 3 while chip 2 and the
	// tail block in the backend; closing the journal is the crash.
	dir := t.TempDir()
	j1, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	gate1 := newHoldBackend(2, 4, 5, 6, 7)
	m1 := newTestManager(t, WithWorkers(2), WithJournal(j1))
	spec := CampaignSpec{
		Name: "gapped", Circuit: c, Options: fastOpts(effitest.WithBackend(gate1)),
		ChipSeed: 5, ChipCount: n, JournalPayload: []byte(`{"campaign":"gapped"}`),
	}
	camp1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "chips 0, 1 and 3 to journal", func() bool {
		return j1.Stats().Records >= 1+3
	})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	close(gate1.release)
	if _, err := camp1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	m1.Shutdown(ctx)

	// Recovery boot on one worker, which blocks on chip 2.
	j2, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	gate2 := newHoldBackend(2)
	recovered := spec
	recovered.Options = fastOpts(effitest.WithBackend(gate2))
	m2 := newTestManager(t, WithWorkers(1), WithJournal(j2))
	rs, err := m2.Recover(testDecoder(recovered))
	if err != nil {
		t.Fatal(err)
	}
	if rs.ChipsReplayed != 3 {
		t.Fatalf("replayed %d chips, want 3", rs.ChipsReplayed)
	}
	<-gate2.held
	st := m2.Stats()
	close(gate2.release) // before any Fatal: Shutdown would wait on chip 2
	if st.ChipsInFlight != 1 || st.ChipsPending != 4 {
		t.Fatalf("ChipsInFlight = %d, ChipsPending = %d, want 1 and 4", st.ChipsInFlight, st.ChipsPending)
	}
	camp2, ok := m2.Campaign(camp1.ID())
	if !ok {
		t.Fatal("recovered campaign not found")
	}
	if st, err := camp2.Wait(ctx); err != nil || st.State != StateDone {
		t.Fatalf("recovered campaign: %v, %v", st.State, err)
	}
}

// TestRecoverReexecutesMisindexedRecord: a journaled chip record whose
// manufacturing index is not ChipFirst+Index belongs to another position,
// so recovery must re-execute that position rather than replay the record.
// The planted record files chip Index gated+1's real outcome under Index
// gated; replaying it would put the wrong chip's outcome there.
func TestRecoverReexecutesMisindexedRecord(t *testing.T) {
	const n, first, gated = 8, 3, 4
	c := tinyCircuit(t, "misindexed", 3)
	ctx := context.Background()

	ref := newTestManager(t, WithWorkers(2))
	refCamp, err := ref.Submit(CampaignSpec{
		Name: "ref", Circuit: c, Options: fastOpts(), ChipSeed: 11, ChipCount: n, ChipFirst: first,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := refCamp.Wait(ctx); err != nil || st.State != StateDone {
		t.Fatalf("reference run: %v, %v", st.State, err)
	}
	var want []effitest.ChipResult
	for res := range refCamp.Results(ctx) {
		want = append(want, res)
	}
	if outcomesEqual(want[gated].Outcome, want[gated+1].Outcome) {
		t.Fatal("chips gated and gated+1 have equal outcomes: the planted record would go unnoticed")
	}

	dir := t.TempDir()
	j1, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateBackend{allowBelow: first + gated, release: make(chan struct{})}
	m1 := newTestManager(t, WithWorkers(2), WithJournal(j1))
	spec := CampaignSpec{
		Name: "misindexed", Circuit: c, Options: fastOpts(effitest.WithBackend(gate)),
		ChipSeed: 11, ChipCount: n, ChipFirst: first, JournalPayload: []byte(`{"campaign":"misindexed"}`),
	}
	camp1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ungated chips to journal", func() bool {
		return j1.Stats().Records >= 1+gated
	})
	bad := chipRecord(&want[gated+1], first+gated+1)
	bad.Index = gated
	if err := j1.AppendChip(camp1.ID(), bad); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil { // the crash
		t.Fatal(err)
	}
	close(gate.release)
	if _, err := camp1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	m1.Shutdown(ctx)

	j2, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	clean := spec
	clean.Options = fastOpts()
	m2 := newTestManager(t, WithWorkers(2), WithJournal(j2))
	if _, err := m2.Recover(testDecoder(clean)); err != nil {
		t.Fatal(err)
	}
	camp2, ok := m2.Campaign(camp1.ID())
	if !ok {
		t.Fatal("recovered campaign not found")
	}
	if st, err := camp2.Wait(ctx); err != nil || st.State != StateDone {
		t.Fatalf("recovered campaign: %v, %v", st.State, err)
	}
	if ms := m2.Stats(); ms.ChipsReplayed != gated || ms.ChipsExecuted != n-gated {
		t.Fatalf("replayed %d and executed %d chips, want %d and %d: the misindexed record replayed",
			ms.ChipsReplayed, ms.ChipsExecuted, gated, n-gated)
	}
	i := 0
	for res := range camp2.Results(ctx) {
		if res.Err != nil || !outcomesEqual(res.Outcome, want[i].Outcome) {
			t.Fatalf("chip %d: recovered result differs from the uninterrupted run (err %v)", i, res.Err)
		}
		i++
	}
	if i != n {
		t.Fatalf("recovered stream has %d results, want %d", i, n)
	}
}

// TestSubmitIdempotencyKey: a duplicate key returns the prior campaign —
// same pointer, no new execution — and key validation lives at the HTTP
// layer, so the manager accepts any non-empty string.
func TestSubmitIdempotencyKey(t *testing.T) {
	m := newTestManager(t, WithWorkers(2))
	c := tinyCircuit(t, "idem", 3)
	spec := CampaignSpec{
		Name: "first", Key: "retry-key", Circuit: c, Options: fastOpts(),
		ChipSeed: 5, ChipCount: 3,
	}
	a, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "second submit, same key"
	b, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("duplicate key created a second campaign")
	}
	if _, err := a.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Terminal campaigns still dedup: a retry after completion must see
	// the finished campaign, not a re-execution.
	dup, err := m.Submit(spec)
	if err != nil || dup != a {
		t.Fatalf("post-completion duplicate: %v, same=%v", err, dup == a)
	}
	if got, ok := m.CampaignByKey("retry-key"); !ok || got != a {
		t.Fatal("CampaignByKey lookup failed")
	}
	if _, ok := m.CampaignByKey(""); ok {
		t.Fatal("empty key must never match")
	}
}

// TestShutdownLeavesJournalResumable pins the durable-shutdown contract:
// Shutdown writes no settle record, so a drained-but-unfinished campaign
// recovers on the next boot with its completed chips replayed.
func TestShutdownLeavesJournalResumable(t *testing.T) {
	// The ungated chips complete, then each worker holds one gated chip
	// when the drain begins: those two finish during the drain, and the
	// rest of the population stays undispatched.
	const n = 10
	const gated = 2
	const workers = 2
	c := tinyCircuit(t, "drain", 3)
	ctx := context.Background()

	dir := t.TempDir()
	j1, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateBackend{allowBelow: gated, release: make(chan struct{})}
	m1, err := NewManager(WithWorkers(workers), WithJournal(j1))
	if err != nil {
		t.Fatal(err)
	}
	spec := CampaignSpec{
		Name: "drained", Key: "drain-key", Circuit: c,
		Options:  fastOpts(effitest.WithBackend(gate)),
		ChipSeed: 3, ChipCount: n,
		JournalPayload: []byte(`{"campaign":"drained"}`),
	}
	camp, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Chips are journaled before they are delivered, so ChipsDone implies
	// the journal records.
	waitFor(t, "ungated chips to finish and workers to hold gated chips", func() bool {
		return camp.Status().ChipsDone == gated && m1.Stats().ChipsInFlight == workers
	})
	done := make(chan error, 1)
	go func() { done <- m1.Shutdown(ctx) }()
	// Only release the gate once Shutdown has resolved the undispatched
	// tail: from then on the dispatched set is frozen, so the tail cannot
	// sneak onto the pool.
	waitFor(t, "shutdown to cancel the campaign", func() bool {
		return camp.Status().State == StateCancelled
	})
	close(gate.release) // the workers' chips finish during the drain
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := camp.Status()
	if st.State.Terminal() == false {
		t.Fatalf("campaign not settled in memory after drain: %s", st.State)
	}
	// The drain writes no settle record, so Wait must not wait for one.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := camp.Wait(wctx); err != nil {
		t.Fatalf("Wait after the drain: %v", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Next boot: the campaign must come back unsettled. Chips that
	// completed (including during the drain) replay; chips the drain
	// cancelled re-execute.
	j2, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	cleanSpec := spec
	cleanSpec.Options = fastOpts()
	m2 := newTestManager(t, WithWorkers(2), WithJournal(j2))
	rs, err := m2.Recover(testDecoder(cleanSpec))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Campaigns != 1 || rs.Settled != 0 {
		t.Fatalf("shutdown settled the journal: %+v", rs)
	}
	if rs.ChipsReplayed != gated+workers {
		t.Fatalf("replayed %d chips, want %d", rs.ChipsReplayed, gated+workers)
	}
	camp2, ok := m2.CampaignByKey("drain-key")
	if !ok {
		t.Fatal("recovered campaign lost its key")
	}
	st2, err := camp2.Wait(ctx)
	if err != nil || st2.State != StateDone {
		t.Fatalf("resumed campaign: %v, %v", st2.State, err)
	}
	for res := range camp2.Results(ctx) {
		if res.Err != nil {
			t.Fatalf("chip %d: %v (drain artifacts must never be replayed)", res.Index, res.Err)
		}
	}
	if ms := m2.Stats(); ms.ChipsExecuted+ms.ChipsReplayed != n {
		t.Fatalf("executed %d + replayed %d != %d", ms.ChipsExecuted, ms.ChipsReplayed, n)
	}
}

// TestRecoverFullyReplayedCampaign: a campaign whose every chip is already
// in the log (it finished, but the settle record was lost to the crash)
// settles immediately on recovery without executing anything.
func TestRecoverFullyReplayedCampaign(t *testing.T) {
	const n = 4
	c := tinyCircuit(t, "full", 3)
	ctx := context.Background()
	dir := t.TempDir()

	j1, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	m1 := newTestManager(t, WithWorkers(2), WithJournal(j1))
	spec := CampaignSpec{
		Name: "done-but-unsettled", Circuit: c, Options: fastOpts(),
		ChipSeed: 9, ChipCount: n, JournalPayload: []byte(`{"x":1}`),
	}
	camp, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := camp.Wait(ctx); err != nil || st.State != StateDone {
		t.Fatalf("%v %v", st.State, err)
	}
	// The campaign settled and compacted. Simulate losing the settle
	// record instead: rebuild the segment as spec + all chips, unsettled.
	m1.Shutdown(ctx)
	j1.Close()

	j2, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := j2.Recover()
	if err != nil || len(recs) != 1 || !recs[0].Settled() {
		t.Fatalf("setup: %v %+v", err, recs)
	}
	j2.Close()

	// A settled segment stays settled: Recover on a manager reports it,
	// admits nothing, and the ID sequence still advances past it.
	j3, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	m3 := newTestManager(t, WithWorkers(1), WithJournal(j3))
	rs, err := m3.Recover(testDecoder(spec))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Campaigns != 0 || rs.Settled != 1 {
		t.Fatalf("settled campaign re-admitted: %+v", rs)
	}
	next, err := m3.Submit(CampaignSpec{
		Circuit: c, Options: fastOpts(), ChipSeed: 1, ChipCount: 1,
		JournalPayload: []byte(`{"y":2}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() == camp.ID() {
		t.Fatalf("ID sequence collided with journaled campaign %s", camp.ID())
	}
	if _, err := next.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSkipsChangedWorld: a journaled campaign whose decoded spec no
// longer matches the journaled fingerprints must not replay — recovery
// refuses rather than merging records from a different circuit.
func TestRecoverSkipsChangedWorld(t *testing.T) {
	c := tinyCircuit(t, "world-a", 3)
	dir := t.TempDir()
	j1, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateBackend{allowBelow: 0, release: make(chan struct{})}
	m1 := newTestManager(t, WithWorkers(1), WithJournal(j1))
	spec := CampaignSpec{
		Name: "was-world-a", Circuit: c, Options: fastOpts(effitest.WithBackend(gate)),
		ChipSeed: 2, ChipCount: 2, JournalPayload: []byte(`{"w":"a"}`),
	}
	if _, err := m1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	j1.Close() // crash with the campaign still fully pending
	close(gate.release)
	m1.Shutdown(context.Background())

	j2, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	otherWorld := spec
	otherWorld.Circuit = tinyCircuit(t, "world-b", 4)
	otherWorld.Options = fastOpts()
	m2 := newTestManager(t, WithWorkers(1), WithJournal(j2))
	rs, err := m2.Recover(testDecoder(otherWorld))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Campaigns != 0 || rs.Skipped != 1 {
		t.Fatalf("changed world not refused: %+v", rs)
	}
	if ms := m2.Stats(); ms.CampaignsRecovered != 0 {
		t.Fatalf("CampaignsRecovered = %d, want 0", ms.CampaignsRecovered)
	}
}
