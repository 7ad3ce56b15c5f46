package core

import "time"

// Event is a typed notification emitted by the flow as it executes. Every
// concrete event type embeds nothing and carries plain values, so metrics
// sinks can switch on the type without reaching back into live flow state.
//
// Chip fields identify the die by Chip.Index (the manufacturing index), not
// a stream position: the same chip produces the same events wherever it
// appears in a fleet.
type Event interface{ event() }

// PrepareDoneEvent fires once when the offline plan becomes available —
// freshly computed, restored from a plan cache, or supplied pre-built.
type PrepareDoneEvent struct {
	Circuit  string
	Groups   int
	Tested   int
	Batches  int
	Duration time.Duration
	CacheHit bool // the plan came from a cache or a loaded artifact
}

// BatchStartEvent fires when a chip begins measuring one test batch.
type BatchStartEvent struct {
	Chip  int // Chip.Index
	Batch int // batch position in Plan.Batches
	Paths int // paths in the batch
}

// BatchEndEvent fires when a batch's every path is resolved (or the batch
// errored; Err carries the cause).
type BatchEndEvent struct {
	Chip       int
	Batch      int
	Iterations int
	AlignTime  time.Duration
	Err        error
}

// FrequencyStepEvent fires for every tester iteration: one clock period
// applied to one batch.
type FrequencyStepEvent struct {
	Chip      int
	Batch     int
	Requested float64 // period asked of the transport (ns)
	Applied   float64 // period the transport actually produced (ns)
	Active    int     // unresolved paths the step was applied to
}

// AlignSolveEvent fires after each §3.3 alignment solve, one per frequency
// step. A batch's opening step served from the plan's baked opening solve
// fires it too: its Duration is then the time to match and copy the baked
// result, not a solve.
type AlignSolveEvent struct {
	Chip     int
	Batch    int
	Period   float64 // solved test period T (ns)
	Duration time.Duration
}

// PredictEvent fires once per chip, after §3.4's conditional prediction of
// the untested paths. Duration is the chip's prediction wall time — the
// component the paper folds into Tp — spent applying the plan's baked
// predictors (AlignSolveEvent durations are the matching Tt component). Groups and Predicted describe the baked kernel
// structure: they are the same for every chip of a plan.
type PredictEvent struct {
	Chip      int
	Groups    int // correlation groups with at least one measured path
	Predicted int // untested paths whose windows were predicted
	Duration  time.Duration
}

// ConfigureEvent fires once per chip, after the final buffer
// configuration (Eqs. 15–18 with the hold bounds of Eq. 21). Duration is the
// configuration wall time, the paper's Ts component; Feasible reports
// whether a configuration was found.
type ConfigureEvent struct {
	Chip     int
	Duration time.Duration
	Feasible bool
}

// ChipDoneEvent fires when one chip's online flow finishes, successfully or
// not (Err carries the per-chip failure).
type ChipDoneEvent struct {
	Chip       int
	Iterations int
	Configured bool
	Passed     bool
	Err        error
}

func (PrepareDoneEvent) event()   {}
func (BatchStartEvent) event()    {}
func (BatchEndEvent) event()      {}
func (FrequencyStepEvent) event() {}
func (AlignSolveEvent) event()    {}
func (PredictEvent) event()       {}
func (ConfigureEvent) event()     {}
func (ChipDoneEvent) event()      {}

// Observer receives flow events. Chips execute on a worker pool, so Observe
// is called concurrently and must be safe for concurrent use; it runs
// inline on the hot path, so implementations should be quick (count, sample
// or enqueue — not block).
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f(e).
func (f ObserverFunc) Observe(e Event) { f(e) }

// observe emits e to obs when one is configured.
func observe(obs Observer, e Event) {
	if obs != nil {
		obs.Observe(e)
	}
}
