package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"effitest"
)

// openBackend delegates to the simulated ATE and announces every session
// open on opened, a send that never blocks: a full buffer drops the
// announcement. A chip that has announced is in flight: its first
// alignment solve starts right after the open returns.
type openBackend struct {
	opened chan int
	inner  effitest.SimBackend
}

func (b *openBackend) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	select {
	case b.opened <- ch.Index:
	default:
	}
	return b.inner.Open(ch, resolution)
}

// exactPromptly bounds how long a cancelled exact-mode chip may take to
// leave its solve. Uncancelled, a usb_funct chip under fast-milp stays in
// branch and bound for minutes; the bound is generous so that a loaded or
// race-instrumented runner cannot flake it.
const exactPromptly = 60 * time.Second

// submitExactCampaign submits a two-chip fast-milp usb_funct campaign to a
// one-worker manager and returns once chip 0 is in flight, so chip 1 is
// still undispatched.
func submitExactCampaign(t *testing.T, m *Manager) *Campaign {
	t.Helper()
	p, _ := effitest.ProfileByName("usb_funct")
	c, err := effitest.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	be := &openBackend{opened: make(chan int, 2)} // one slot per chip
	camp, err := m.Submit(CampaignSpec{
		Name: "exact", Circuit: c, ChipSeed: 3, ChipCount: 2,
		Options: []effitest.Option{
			effitest.WithAlignMode(effitest.AlignFastMILP),
			effitest.WithPeriod(c.TNominal),
			effitest.WithBackend(be),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-be.opened:
	case <-time.After(exactPromptly):
		t.Fatal("chip 0 never opened a tester session")
	}
	if st := m.Stats(); st.ChipsInFlight != 1 {
		t.Fatalf("%d chips in flight, want chip 0 alone", st.ChipsInFlight)
	}
	return camp
}

// checkChip0Aborted checks that the in-flight chip came back with an error
// rather than an outcome: it left its solve, it did not finish it.
func checkChip0Aborted(t *testing.T, camp *Campaign) {
	t.Helper()
	for res := range camp.Results(context.Background()) {
		if res.Index == 0 && (res.Err == nil || res.Outcome != nil) {
			t.Fatalf("chip 0: outcome %v, err %v; want an aborted chip", res.Outcome, res.Err)
		}
	}
}

// TestExactAlignCancelWaitsPromptly cancels a fast-milp campaign while its
// chip is in an exact alignment solve: Wait must return promptly with the
// campaign cancelled, because the solve honours the chip's context.
func TestExactAlignCancelWaitsPromptly(t *testing.T) {
	m := newTestManager(t, WithWorkers(1))
	camp := submitExactCampaign(t, m)

	start := time.Now()
	camp.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), exactPromptly)
	defer cancel()
	st, err := camp.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait after Cancel: %v after %v", err, time.Since(start))
	}
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	checkChip0Aborted(t, camp)
}

// TestExactAlignShutdownWithChipInFlight shuts a manager down while a
// fast-milp chip is in its exact alignment solve. The drain waits for the
// chip until Shutdown's deadline, then cancels it; Shutdown must then
// return promptly with the deadline's error and leave the campaign
// settled.
func TestExactAlignShutdownWithChipInFlight(t *testing.T) {
	m := newTestManager(t, WithWorkers(1))
	camp := submitExactCampaign(t, m)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	err := m.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > exactPromptly {
		t.Fatalf("Shutdown returned %v after its 1 s deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown error = %v, want context.DeadlineExceeded", err)
	}
	st := camp.Status()
	if st.State != StateCancelled || st.ChipsDone != 2 {
		t.Fatalf("after Shutdown: state %s with %d/2 chips done, want a settled cancelled campaign", st.State, st.ChipsDone)
	}
	checkChip0Aborted(t, camp)
}
