package tester

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
)

// TraceFormat is the serialization version of measurement traces; bumped on
// any incompatible change so stale recordings fail loudly instead of
// replaying garbage.
const TraceFormat = 1

// Replay errors. Both are wrapped with per-step detail; match with
// errors.Is.
var (
	// ErrTraceDivergence reports a replayed Step whose request (period or
	// batch) differs from what was recorded — the flow being re-run is not
	// the flow that produced the trace.
	ErrTraceDivergence = errors.New("tester: replay diverged from recorded trace")
	// ErrTraceExhausted reports a Step or session open beyond the end of
	// the recording.
	ErrTraceExhausted = errors.New("tester: replay trace exhausted")
)

// StepRecord is one recorded frequency-stepping iteration.
type StepRecord struct {
	T        float64 `json:"t"`
	Applied  float64 `json:"applied"`
	Batch    []int   `json:"batch"`
	Pass     []bool  `json:"pass"`
	ScanBits int64   `json:"scan_bits"` // cumulative session scan bits after this step
}

// SessionTrace is the recording of one measurement session on one chip.
type SessionTrace struct {
	Steps []StepRecord `json:"steps"`
}

// ChipTrace holds a chip's recorded sessions in open order.
type ChipTrace struct {
	Chip     int             `json:"chip"`
	Sessions []*SessionTrace `json:"sessions"`
}

// Trace is a serializable recording of every measurement a backend
// performed over a fleet: per chip (by Chip.Index), the sessions in open
// order, each with its frequency steps and accounting. A trace recorded
// once can be replayed any number of times for deterministic offline
// re-runs without a tester.
type Trace struct {
	Format     int          `json:"format"`
	Circuit    string       `json:"circuit"`
	Resolution float64      `json:"resolution"`
	Chips      []*ChipTrace `json:"chips"`
}

// WriteTrace serializes the trace as JSON (chips sorted by index).
func WriteTrace(w io.Writer, tr *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tr)
}

// ReadTrace deserializes a JSON trace and validates its format version and
// shape: no null chip or session entries, and every recorded step carries
// one pass bit per batch path, so a decoded trace replays without panics.
func ReadTrace(r io.Reader) (*Trace, error) {
	var tr Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("tester: decode trace: %w", err)
	}
	if tr.Format != TraceFormat {
		return nil, fmt.Errorf("tester: trace format %d, want %d", tr.Format, TraceFormat)
	}
	for i, ct := range tr.Chips {
		if ct == nil {
			return nil, fmt.Errorf("tester: trace chip entry %d is null", i)
		}
		for si, st := range ct.Sessions {
			if st == nil {
				return nil, fmt.Errorf("tester: trace chip %d session %d is null", ct.Chip, si)
			}
			for k, rec := range st.Steps {
				if len(rec.Pass) != len(rec.Batch) {
					return nil, fmt.Errorf("tester: trace chip %d session %d step %d has %d pass bits for %d batch paths",
						ct.Chip, si, k, len(rec.Pass), len(rec.Batch))
				}
			}
		}
	}
	return &tr, nil
}

// RecordBackend wraps another backend and records every session it opens
// into a Trace. Safe for concurrent sessions on distinct chips; each chip's
// sessions are kept in open order.
type RecordBackend struct {
	Inner Backend

	mu    sync.Mutex
	trace Trace
	chips map[int]*ChipTrace
}

// NewRecorder records every measurement performed through inner (nil means
// the default SimBackend).
func NewRecorder(inner Backend) *RecordBackend {
	if inner == nil {
		inner = SimBackend{}
	}
	return &RecordBackend{Inner: inner, chips: make(map[int]*ChipTrace)}
}

// Open starts a recording session on the chip.
func (rb *RecordBackend) Open(ch *Chip, resolution float64) (Session, error) {
	inner, err := rb.Inner.Open(ch, resolution)
	if err != nil {
		return nil, err
	}
	st := &SessionTrace{}
	rb.mu.Lock()
	if rb.trace.Circuit == "" {
		rb.trace.Circuit = ch.Circuit.Name
		rb.trace.Resolution = resolution
	}
	ct := rb.chips[ch.Index]
	if ct == nil {
		ct = &ChipTrace{Chip: ch.Index}
		rb.chips[ch.Index] = ct
	}
	ct.Sessions = append(ct.Sessions, st)
	rb.mu.Unlock()
	return &recordSession{inner: inner, st: st}, nil
}

// Trace returns a snapshot of everything recorded so far, with chips sorted
// by index. Call it after the runs using the recorder have finished.
func (rb *RecordBackend) Trace() *Trace {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	tr := &Trace{Format: TraceFormat, Circuit: rb.trace.Circuit, Resolution: rb.trace.Resolution}
	for _, ct := range rb.chips {
		tr.Chips = append(tr.Chips, ct)
	}
	sort.Slice(tr.Chips, func(i, j int) bool { return tr.Chips[i].Chip < tr.Chips[j].Chip })
	return tr
}

type recordSession struct {
	inner Session
	st    *SessionTrace
}

func (rs *recordSession) Step(T float64, x []float64, batch []int) (float64, []bool, error) {
	applied, pass, err := rs.inner.Step(T, x, batch)
	if err != nil {
		return applied, pass, err
	}
	_, scan := rs.inner.Counters()
	rs.st.Steps = append(rs.st.Steps, StepRecord{
		T:        T,
		Applied:  applied,
		Batch:    slices.Clone(batch),
		Pass:     slices.Clone(pass),
		ScanBits: scan,
	})
	return applied, pass, nil
}

func (rs *recordSession) Counters() (int, int64) { return rs.inner.Counters() }

// ReplayBackend replays a recorded Trace instead of measuring: each chip's
// sessions are handed out in open order and every Step returns exactly the
// recorded outcome, after verifying that the requested period and batch
// match the recording (a mismatch is a typed ErrTraceDivergence). Replays
// are deterministic and tester-free, so a production trace can be re-run
// offline — through the identical flow code — as many times as needed.
//
// Safe for concurrent sessions on distinct chips, provided each chip's
// sessions are opened in the recorded order (which any deterministic flow
// does).
type ReplayBackend struct {
	mu    sync.Mutex
	trace map[int]*ChipTrace
	next  map[int]int // chip index -> next session to hand out
}

// NewReplayer builds a replaying backend over a recorded trace.
func NewReplayer(tr *Trace) *ReplayBackend {
	m := make(map[int]*ChipTrace, len(tr.Chips))
	for _, ct := range tr.Chips {
		m[ct.Chip] = ct
	}
	return &ReplayBackend{trace: m, next: make(map[int]int)}
}

// Open hands out the chip's next recorded session.
func (rp *ReplayBackend) Open(ch *Chip, resolution float64) (Session, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	ct := rp.trace[ch.Index]
	if ct == nil {
		return nil, fmt.Errorf("%w: no recording for chip %d", ErrTraceExhausted, ch.Index)
	}
	k := rp.next[ch.Index]
	if k >= len(ct.Sessions) {
		return nil, fmt.Errorf("%w: chip %d has %d recorded sessions", ErrTraceExhausted, ch.Index, len(ct.Sessions))
	}
	rp.next[ch.Index] = k + 1
	return &replaySession{chip: ch.Index, st: ct.Sessions[k]}, nil
}

type replaySession struct {
	chip  int
	st    *SessionTrace
	pos   int
	iters int
	scan  int64
}

func (rs *replaySession) Step(T float64, x []float64, batch []int) (float64, []bool, error) {
	if rs.pos >= len(rs.st.Steps) {
		return 0, nil, fmt.Errorf("%w: chip %d step %d beyond %d recorded steps",
			ErrTraceExhausted, rs.chip, rs.pos, len(rs.st.Steps))
	}
	rec := rs.st.Steps[rs.pos]
	if T != rec.T {
		return 0, nil, fmt.Errorf("%w: chip %d step %d requested period %v, recorded %v",
			ErrTraceDivergence, rs.chip, rs.pos, T, rec.T)
	}
	if !slices.Equal(batch, rec.Batch) {
		return 0, nil, fmt.Errorf("%w: chip %d step %d requested batch %v, recorded %v",
			ErrTraceDivergence, rs.chip, rs.pos, batch, rec.Batch)
	}
	rs.pos++
	rs.iters++
	rs.scan = rec.ScanBits
	return rec.Applied, slices.Clone(rec.Pass), nil
}

func (rs *replaySession) Counters() (int, int64) { return rs.iters, rs.scan }
