package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"effitest"
	"effitest/fleet/journal"
)

// The admission bound refuses submissions once the non-terminal campaign
// backlog hits the limit, and frees a slot the moment a campaign settles —
// by completion, failure, or cancellation alike.
func TestManagerAdmissionBound(t *testing.T) {
	m := newTestManager(t, WithWorkers(1), WithMaxQueuedCampaigns(2))
	c := tinyCircuit(t, "admit", 3)
	sb := &slowBackend{delay: 20 * time.Millisecond}
	opts := fastOpts(effitest.WithBackend(sb))

	submit := func() (*Campaign, error) {
		return m.Submit(CampaignSpec{Circuit: c, Options: opts, ChipSeed: 1, ChipCount: 8})
	}
	a, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	b, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit over a bound of 2: err %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.QueueLimit != 2 || st.CampaignsRejected != 1 {
		t.Fatalf("stats limit=%d rejected=%d, want 2/1", st.QueueLimit, st.CampaignsRejected)
	}

	// Cancelling one campaign frees its slot once it settles.
	a.Cancel()
	if _, err := a.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	d, err := submit()
	if err != nil {
		t.Fatalf("submit after a settled cancel: %v", err)
	}

	for _, camp := range []*Campaign{b, d} {
		camp.Cancel()
		if _, err := camp.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// A campaign that fails engine construction releases its admission slot —
// a stream of doomed submissions must not wedge the bound shut.
func TestAdmissionSlotFreedOnPrepFailure(t *testing.T) {
	m := newTestManager(t, WithMaxQueuedCampaigns(1))
	c := tinyCircuit(t, "admitfail", 3)
	for i := 0; i < 3; i++ {
		camp, err := m.Submit(CampaignSpec{Circuit: c, Options: []effitest.Option{effitest.WithEpsilon(-4)}, ChipCount: 2})
		if err != nil {
			t.Fatalf("round %d: submit refused: %v", i, err)
		}
		if st, err := camp.Wait(context.Background()); err != nil || st.State != StateFailed {
			t.Fatalf("round %d: state %v err %v, want failed", i, st.State, err)
		}
	}
}

// Cancelling a journaled campaign with a chip in flight is one terminal
// transition: the cancel itself releases the admission slot and writes the
// settle record, and the in-flight chip's later delivery does neither
// again. A second release would let a third campaign past the bound while
// the second one runs.
func TestCancelInFlightSettlesOnce(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, WithWorkers(1), WithMaxQueuedCampaigns(1), WithJournal(j))
	c := tinyCircuit(t, "cancelonce", 3)
	submit := func(name string, hold *holdBackend) (*Campaign, error) {
		return m.Submit(CampaignSpec{
			Name: name, Circuit: c, Options: fastOpts(effitest.WithBackend(hold)),
			ChipSeed: 5, ChipCount: 3, JournalPayload: []byte(`{}`),
		})
	}
	holdA, holdB := newHoldBackend(0), newHoldBackend(0)
	release := func(h *holdBackend) {
		select {
		case <-h.release:
		default:
			close(h.release)
		}
	}
	t.Cleanup(func() { release(holdA); release(holdB) })

	a, err := submit("a", holdA)
	if err != nil {
		t.Fatal(err)
	}
	<-holdA.held // a's chip 0 is in flight on the only worker
	a.Cancel()
	if js := j.Stats(); js.Compactions != 1 || js.OpenSegments != 0 {
		t.Fatalf("cancel did not write the settle record at the transition: %+v", js)
	}
	b, err := submit("b", holdB)
	if err != nil {
		t.Fatalf("submit after cancelling a campaign with a chip in flight: %v", err)
	}
	if st := a.Status(); st.State != StateCancelled || !st.FinishedAt.IsZero() {
		t.Fatalf("cancelled campaign: state %s, finished %v; want cancelled with its chip still in flight", st.State, st.FinishedAt)
	}

	release(holdA)
	if st, err := a.Wait(context.Background()); err != nil || st.State != StateCancelled || st.ChipsDone != 3 {
		t.Fatalf("cancelled campaign settled %v with %d chips, err %v", st.State, st.ChipsDone, err)
	}
	<-holdB.held // b is running
	if _, err := submit("c", holdB); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit while b runs: err %v, want ErrQueueFull", err)
	}
	release(holdB)
	if st, err := b.Wait(context.Background()); err != nil || st.State != StateDone {
		t.Fatalf("second campaign: %v, %v", st.State, err)
	}

	data, err := os.ReadFile(filepath.Join(dir, a.ID()+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	settles := 0
	for len(data) >= 9 { // frame: 4-byte length, 4-byte CRC, type byte + JSON
		n := int(binary.LittleEndian.Uint32(data))
		if data[8] == 3 { // settle record
			settles++
		}
		data = data[min(8+n, len(data)):]
	}
	if settles != 1 {
		t.Fatalf("cancelled campaign's segment holds %d settle records, want 1", settles)
	}
}

// WithMaxQueuedCampaigns rejects a negative bound.
func TestAdmissionOptionValidation(t *testing.T) {
	if _, err := NewManager(WithMaxQueuedCampaigns(-1)); err == nil {
		t.Fatal("negative admission bound accepted")
	}
}
