package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"effitest"
	"effitest/fleet/journal"
)

// WithJournal attaches a durable campaign journal: Submit appends each
// campaign's spec before admitting it, workers append every completed chip
// before delivering its result, and campaigns write a terminal settle
// record (compacting their segment) — except during Shutdown, whose
// interruptions are recovery's job (see Shutdown). Pair it with Recover at
// boot to resume what a previous process left unfinished.
//
// The journal's fsync runs under the manager's submit lock for spec
// records and on the worker's goroutine for chip records; with per-chip
// work in the millisecond range and up, the added latency is noise. Append
// failures after admission (disk full mid-campaign) never stop execution:
// the manager keeps running and the failure is surfaced through
// ManagerStats.JournalAppendErrors — durability degrades, results do not.
func WithJournal(j *journal.Journal) ManagerOption {
	return func(m *Manager) error {
		if j == nil {
			return fmt.Errorf("fleet: WithJournal needs a non-nil journal")
		}
		m.journal = j
		return nil
	}
}

// Journal returns the manager's campaign journal (nil without WithJournal).
func (m *Manager) Journal() *journal.Journal { return m.journal }

// RecoverStats is the accounting of one boot-time Recover.
type RecoverStats struct {
	// Campaigns counts non-terminal campaigns re-admitted to the queue;
	// ChipsReplayed counts the journaled chip records handed to them for
	// replay (the per-campaign population cross-check may drop individual
	// records later; ManagerStats.ChipsReplayed counts what actually
	// replayed).
	Campaigns     int
	ChipsReplayed int
	// Settled counts terminal segments left compacted on disk; Skipped
	// counts non-terminal segments that could not be re-admitted — the
	// payload no longer decodes or the fingerprints no longer match — and
	// were left untouched for the operator.
	Settled int
	Skipped int
}

// Recover rebuilds every non-terminal journaled campaign into the queue.
// decode turns a spec record's opaque payload back into a CampaignSpec
// (for the HTTP surface, httpapi.SpecDecoder); a payload that fails to
// decode, or whose circuit/config fingerprints differ from the journaled
// ones, is skipped — recovery must never replay records against a changed
// world, where "deterministic" no longer implies "identical".
//
// Re-admitted campaigns keep their original IDs and idempotency keys (the
// ID counter advances past every journaled ID, settled ones included) and
// bypass the WithMaxQueuedCampaigns bound: they were admitted before the
// restart, and refusing them would strand their journal segments. Chips
// already in the log are emitted into Results and the aggregate without
// re-execution; the determinism of the flow makes the recovered campaign
// bit-identical to an uninterrupted one.
//
// Call Recover once, after NewManager and before serving submissions.
func (m *Manager) Recover(decode func([]byte) (CampaignSpec, error)) (RecoverStats, error) {
	var rs RecoverStats
	if m.journal == nil {
		return rs, errors.New("fleet: Recover needs a journal (WithJournal)")
	}
	if decode == nil {
		return rs, errors.New("fleet: Recover needs a spec decoder")
	}
	recs, err := m.journal.Recover()
	if err != nil {
		return rs, err
	}
	// Advance the ID sequence past every journaled campaign — settled ones
	// included — so new submissions never collide with an existing segment.
	maxID := 0
	for _, rec := range recs {
		var n int
		if _, err := fmt.Sscanf(rec.Spec.ID, "c%d", &n); err == nil && n > maxID {
			maxID = n
		}
	}
	m.mu.Lock()
	if m.nextID < maxID {
		m.nextID = maxID
	}
	m.mu.Unlock()

	for _, rec := range recs {
		if rec.Settled() {
			rs.Settled++
			continue
		}
		spec, err := decode(rec.Spec.Payload)
		if err != nil || spec.Circuit == nil {
			rs.Skipped++
			continue
		}
		if !m.fingerprintsMatch(rec.Spec, spec) {
			rs.Skipped++
			continue
		}
		spec.Name, spec.Key = rec.Spec.Name, rec.Spec.Key
		c := m.newCampaign(spec)
		c.id = rec.Spec.ID
		c.journaled = true
		c.replay = rec.Chips

		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			c.cancel()
			return rs, ErrManagerClosed
		}
		m.backlog.Add(1)
		m.registerLocked(c)
		m.mu.Unlock()

		m.recovered.Add(1)
		rs.Campaigns++
		rs.ChipsReplayed += len(rec.Chips)
		go c.prepare(spec)
	}
	return rs, nil
}

// fingerprintsMatch cross-checks the decoded spec against the journaled
// fingerprints. An absent journaled fingerprint (a decoder that never set
// one) is not checked.
func (m *Manager) fingerprintsMatch(js journal.Spec, spec CampaignSpec) bool {
	if js.CircuitFP != "" {
		fp, err := spec.Circuit.Fingerprint()
		if err != nil || fp != js.CircuitFP {
			return false
		}
	}
	if js.ConfigFP != "" && effitest.SummarizeOptions(spec.Options...).Fingerprint != js.ConfigFP {
		return false
	}
	return true
}

// journalSpec assembles a campaign's journal spec record — fingerprints
// included, so recovery can refuse a changed world. Returns the zero Spec
// when the manager has no journal.
func (m *Manager) journalSpec(spec CampaignSpec) (journal.Spec, error) {
	if m.journal == nil {
		return journal.Spec{}, nil
	}
	cfp, err := spec.Circuit.Fingerprint()
	if err != nil {
		return journal.Spec{}, fmt.Errorf("fleet: fingerprinting circuit: %w", err)
	}
	return journal.Spec{
		Key:       spec.Key,
		Name:      spec.Name,
		CircuitFP: cfp,
		ConfigFP:  effitest.SummarizeOptions(spec.Options...).Fingerprint,
		PlanID:    spec.PlanID,
		ChipSeed:  spec.ChipSeed,
		ChipCount: spec.ChipCount,
		ChipFirst: spec.ChipFirst,
		Payload:   spec.JournalPayload,
	}, nil
}

// draining reports whether Shutdown has begun — journal settle records are
// suppressed from then on (see Shutdown's durable contract).
func (m *Manager) draining() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// deterministicChipErr distinguishes real per-chip failures (deterministic
// properties of the chip, worth journaling and replaying) from scheduling
// artifacts of this process's lifetime (cancellation, shutdown), which
// recovery re-executes.
func deterministicChipErr(err error) bool {
	return !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, ErrManagerClosed) &&
		!errors.Is(err, ErrCampaignCancelled)
}

// journalChip durably appends one completed chip. Failures are counted by
// the journal and do not block delivery.
func (c *Campaign) journalChip(res *effitest.ChipResult) {
	j := c.m.journal
	if j == nil || !c.journaled {
		return
	}
	if res.Err != nil && !deterministicChipErr(res.Err) {
		return
	}
	j.AppendChip(c.id, chipRecord(res, c.first+res.Index))
}

// journalSettle writes the campaign's terminal record and compacts its
// segment — unless the manager is draining: Shutdown leaves campaigns
// unsettled in the log so the next boot resumes them. Either way it then
// releases Wait. Only the caller whose finishLocked made the terminal
// transition runs it, so the record is written at most once.
func (c *Campaign) journalSettle() {
	j := c.m.journal
	if j == nil || !c.journaled {
		return
	}
	c.mu.Lock()
	st, err := c.state, c.err
	c.mu.Unlock()
	if !c.m.draining() {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		j.Settle(c.id, string(st), msg)
	}
	c.mu.Lock()
	c.journalSettled = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// chipRecord serializes a completed chip result, whose chip has
// manufacturing index chipIndex, for the journal. Durations ride along as
// integer nanoseconds so the replayed aggregate's duration sums are exact.
func chipRecord(res *effitest.ChipResult, chipIndex int) journal.ChipRecord {
	rec := journal.ChipRecord{Index: res.Index, ChipIndex: chipIndex}
	if res.Err != nil {
		rec.Error = res.Err.Error()
		return rec
	}
	out := res.Outcome
	rec.Outcome = &journal.Outcome{
		Iterations: out.Iterations,
		ScanBits:   out.ScanBits,
		AlignNS:    int64(out.AlignDuration),
		ConfigNS:   int64(out.ConfigDuration),
		PredictNS:  int64(out.PredictDuration),
		X:          out.X,
		Xi:         out.Xi,
		Configured: out.Configured,
		Passed:     out.Passed,
	}
	if out.Bounds != nil {
		rec.Outcome.BoundsLo = out.Bounds.Lo
		rec.Outcome.BoundsHi = out.Bounds.Hi
	}
	return rec
}

// replayResult rebuilds a ChipResult from its journal record. Inverse of
// chipRecord: every deterministic field round-trips exactly (Go's JSON
// float encoding is lossless), so the replayed result is bit-identical on
// the wire and in the aggregate. The record does not carry the achieved
// period, so a configured record re-samples its chip (see Campaign.chip)
// and recomputes the period from it and the recorded buffer vector, as the
// flow computed it the first time.
func (c *Campaign) replayResult(eng *effitest.Engine, rec journal.ChipRecord) *effitest.ChipResult {
	res := &effitest.ChipResult{Index: rec.Index}
	if rec.Error != "" {
		res.Err = errors.New(rec.Error)
		return res
	}
	o := rec.Outcome
	res.Outcome = &effitest.ChipOutcome{
		Iterations:      o.Iterations,
		ScanBits:        o.ScanBits,
		AlignDuration:   time.Duration(o.AlignNS),
		ConfigDuration:  time.Duration(o.ConfigNS),
		PredictDuration: time.Duration(o.PredictNS),
		X:               o.X,
		Xi:              o.Xi,
		Configured:      o.Configured,
		Passed:          o.Passed,
	}
	if o.Configured {
		res.Outcome.AchievedPeriod = c.chip(eng, rec.Index).AchievedPeriod(o.X)
	}
	if o.BoundsLo != nil || o.BoundsHi != nil {
		res.Outcome.Bounds = &effitest.Bounds{Lo: o.BoundsLo, Hi: o.BoundsHi}
	}
	return res
}
