// Package effitest is a Go reproduction of "EffiTest: Efficient Delay Test
// and Statistical Prediction for Configuring Post-silicon Tunable Buffers"
// (Zhang, Li, Schlichtmann — DAC 2016).
//
// Post-silicon tunable clock buffers let each manufactured chip rebalance
// timing budgets between pipeline stages after fabrication, recovering yield
// lost to process variation — but configuring them needs per-chip path-delay
// measurements, conventionally taken one path at a time by frequency
// stepping on an expensive tester. EffiTest cuts that cost by more than 94%
// with three techniques: statistical path selection + conditional-Gaussian
// prediction (only ~2–20% of paths are measured), path test multiplexing
// (batches of conflict-free paths share a clock period), and delay alignment
// (the tuning buffers themselves are re-tuned during test so one frequency
// step bisects many delay windows at once).
//
// This package is the public facade: it re-exports the circuit model and
// benchmark generator, the manufactured-chip/tester simulator, the EffiTest
// flow, and one-call runners for every table and figure of the paper's
// evaluation. The implementation lives in internal/ packages (linear
// algebra, statistics, LP/MILP solvers, graph algorithms, skew scheduling,
// process-variation modeling, SSTA, the ATE simulator and the flow itself).
//
// The primary entry point is the Engine: a per-circuit handle built with
// functional options over the paper-aligned defaults, holding the prepared
// offline plan and the calibrated test period. Engines execute chips with
// context cancellation, one at a time or fanned across a bounded worker
// pool — a production binning pipeline configures fleets of chips, and
// parallel execution is bit-identical to sequential at any worker count.
//
// Quick start:
//
//	profile, _ := effitest.ProfileByName("s9234")
//	c, _ := effitest.Generate(profile, 1)
//	eng, _ := effitest.New(c,
//		effitest.WithAlignMode(effitest.AlignHeuristic),
//		effitest.WithEpsilon(0.002),
//		effitest.WithWorkers(8),
//		effitest.WithPlanCache("/var/cache/effitest"), // Prepare once fleet-wide
//	)
//	chips, _ := eng.SampleChips(ctx, 1, 1000)
//	for res := range eng.RunChips(ctx, chips) { // streamed in input order
//		if res.Err != nil {
//			log.Printf("chip %d: %v", res.Index, res.Err)
//			continue
//		}
//		fmt.Println(res.Index, res.Outcome.Passed)
//	}
//
// One chip at a time, or collected or aggregated over a population — one
// entry point per shape, all at the engine's test period:
//
//	out, _ := eng.RunChip(ctx, chips[0])
//	outs, _ := eng.RunChipsAll(ctx, chips)   // input order, first error
//	stats, _ := eng.Yield(ctx, chips)        // yield + average tester cost
//
// To test the same plan at another period, build a second engine around
// it: New(c, WithPlan(eng.Plan()), WithPeriod(T)).
//
// The measurement transport is pluggable (WithBackend): the in-process
// simulated ATE by default, RecordBackend/ReplayBackend for recording and
// deterministically replaying measurement traces, FaultBackend for
// injecting typed faults in resilience tests, or any custom Backend
// bridging to real tester hardware. WithObserver registers a sink for
// typed flow events (prepare done, batch start/end, alignment solves,
// frequency steps, chip completions).
//
// The offline plan is a first-class artifact: SavePlan/LoadPlan serialize
// it (versioned binary, circuit-fingerprinted and validated on load), WithPlan injects a loaded artifact, and WithPlanCache points the
// engine at a content-addressed on-disk cache so Prepare runs once per
// (circuit, configuration) across every process that shares the
// directory.
//
// Above the engine sits the fleet service layer (package effitest/fleet):
// an engine registry (bounded LRU, single-flight Prepare per circuit and
// configuration fingerprint) and asynchronous test campaigns on a shared
// fair-scheduled worker pool, exposed over HTTP/JSON by cmd/effitestd with
// a typed Go client in effitest/fleet/client — so many tester processes
// share one plan cache and engine pool.
package effitest

import (
	"context"
	"io"

	"effitest/internal/baseline"
	"effitest/internal/circuit"
	"effitest/internal/core"
	"effitest/internal/exp"
	"effitest/internal/skew"
	"effitest/internal/ssta"
	"effitest/internal/tester"
	"effitest/internal/variation"
	"effitest/internal/yield"
	"effitest/workload"
)

// Circuit model and benchmark generation.
type (
	// Circuit is a benchmark instance: flip-flops, gates on the variation
	// grid, statistical timing paths and tunable-buffer placement.
	Circuit = circuit.Circuit
	// Profile holds a benchmark's published statistics (Table 1).
	Profile = circuit.Profile
	// Path is one combinational timing path with canonical max/min delays.
	Path = circuit.Path
	// Gate is a placed logic gate.
	Gate = circuit.Gate
	// GenConfig tunes the benchmark generator.
	GenConfig = circuit.GenConfig
	// VariationConfig parameterizes the spatial process-variation model.
	VariationConfig = variation.Config
	// Canon is a first-order canonical (linear) statistical delay form.
	Canon = ssta.Canon
)

// Flow types.
type (
	// Config carries all EffiTest flow parameters (ε, correlation schedule,
	// alignment solver mode, hold-yield target, ...).
	Config = core.Config
	// Plan is the offline per-circuit preparation (groups, batches, hold
	// bounds).
	Plan = core.Plan
	// Group is one correlation group with its PCA selection.
	Group = core.Group
	// Bounds tracks per-path delay windows during and after test.
	Bounds = core.Bounds
	// ChipOutcome is the per-chip result of the online flow.
	ChipOutcome = core.ChipOutcome
	// HoldBounds carries the λ lower bounds of §3.5.
	HoldBounds = core.HoldBounds
	// AlignMode selects the alignment solver (heuristic, exact MILP,
	// paper-faithful big-M ILP, or off).
	AlignMode = core.AlignMode
	// Chip is one manufactured die with realized delays.
	Chip = tester.Chip
	// ATE is the simulated tester session with iteration accounting.
	ATE = tester.ATE
)

// Measurement transport: the Backend interface and its implementations.
type (
	// Backend is the pluggable measurement transport: it opens one Session
	// per chip. Select it with WithBackend.
	Backend = tester.Backend
	// Session is one per-chip measurement session (apply buffers, step the
	// clock, report per-path pass/fail, account the cost).
	Session = tester.Session
	// SimBackend is the default in-process simulated ATE transport.
	SimBackend = tester.SimBackend
	// RecordBackend wraps a transport and records every measurement into a
	// serializable Trace.
	RecordBackend = tester.RecordBackend
	// ReplayBackend replays a recorded Trace for deterministic offline
	// re-runs; divergence from the recording is a typed error.
	ReplayBackend = tester.ReplayBackend
	// FaultBackend injects deterministic faults and instruments every call
	// (resilience testing).
	FaultBackend = tester.FaultBackend
	// Trace is a serializable recording of a fleet's measurements.
	Trace = tester.Trace
	// FaultError is the typed error a FaultBackend injects; it wraps
	// ErrInjectedFault.
	FaultError = tester.FaultError
)

// Backend constructors and trace serialization.
var (
	// NewRecorder records every measurement performed through inner (nil =
	// the default SimBackend).
	NewRecorder = tester.NewRecorder
	// NewReplayer replays a recorded trace.
	NewReplayer = tester.NewReplayer
	// NewFaultBackend instruments inner (nil = the default SimBackend)
	// with schedulable faults.
	NewFaultBackend = tester.NewFaultBackend
	// WriteTrace / ReadTrace serialize measurement traces as JSON.
	WriteTrace = tester.WriteTrace
	ReadTrace  = tester.ReadTrace
)

// Backend and replay sentinel errors; match with errors.Is.
var (
	ErrInjectedFault   = tester.ErrInjectedFault
	ErrTraceDivergence = tester.ErrTraceDivergence
	ErrTraceExhausted  = tester.ErrTraceExhausted
)

// Flow observability: typed events delivered to a WithObserver sink.
type (
	// Observer receives flow events; it must be safe for concurrent use.
	Observer = core.Observer
	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = core.ObserverFunc
	// Event is the union of flow event types.
	Event = core.Event
	// PrepareDoneEvent fires once when the offline plan is available.
	PrepareDoneEvent = core.PrepareDoneEvent
	// BatchStartEvent / BatchEndEvent bracket one batch on one chip.
	BatchStartEvent = core.BatchStartEvent
	BatchEndEvent   = core.BatchEndEvent
	// FrequencyStepEvent fires per tester iteration.
	FrequencyStepEvent = core.FrequencyStepEvent
	// AlignSolveEvent fires per §3.3 alignment solve.
	AlignSolveEvent = core.AlignSolveEvent
	// PredictEvent fires once per chip after §3.4's conditional prediction,
	// carrying the chip's prediction wall time (the paper's Tp component;
	// AlignSolveEvent carries the matching Tt).
	PredictEvent = core.PredictEvent
	// ConfigureEvent fires once per chip after the final buffer
	// configuration, carrying its wall time (the paper's Ts component) and
	// whether a configuration was found.
	ConfigureEvent = core.ConfigureEvent
	// ChipDoneEvent fires when one chip's online flow finishes.
	ChipDoneEvent = core.ChipDoneEvent
)

// Plan artifact errors; match with errors.Is.
var (
	ErrPlanFormat          = core.ErrPlanFormat
	ErrPlanVersion         = core.ErrPlanVersion
	ErrPlanCircuitMismatch = core.ErrPlanCircuitMismatch
)

// SavePlan writes a prepared plan to disk as a versioned binary artifact
// (the bytes EncodePlan returns), atomically. The artifact embeds the
// circuit fingerprint and the full flow configuration, so it can be shipped
// across processes and machines.
func SavePlan(path string, pl *Plan) error { return core.SavePlan(path, pl) }

// LoadPlan reads a binary plan artifact and binds it to the circuit,
// verifying the embedded circuit fingerprint, range-checking every index
// and baking the prediction kernels. Feed the result to WithPlan to skip
// Prepare.
func LoadPlan(path string, c *Circuit) (*Plan, error) { return core.LoadPlan(path, c) }

// ConfigFingerprint returns the stable hash of every Prepare-relevant flow
// configuration field (Workers excluded: the worker count never shapes a
// plan). Together with Circuit.Fingerprint it keys the plan cache and fleet
// engine registries.
func ConfigFingerprint(cfg Config) string { return core.ConfigFingerprint(cfg) }

// EncodePlan serializes a prepared plan into its versioned binary artifact
// form — the same bytes SavePlan writes — for transports that are not
// files (an HTTP upload, a database blob).
func EncodePlan(pl *Plan) ([]byte, error) { return pl.MarshalBinary() }

// DecodePlan decodes a binary plan artifact (the bytes EncodePlan returns).
// The result is unbound: hand it to WithPlan, which binds it to the
// engine's circuit, verifying the embedded circuit fingerprint.
func DecodePlan(data []byte) (*Plan, error) { return core.DecodePlan(data) }

// Alignment solver modes.
const (
	AlignHeuristic = core.AlignHeuristic
	AlignFastMILP  = core.AlignFastMILP
	AlignPaperILP  = core.AlignPaperILP
	AlignOff       = core.AlignOff
)

// Skew scheduling (clock-tuning feasibility, the paper's Figure 2 machinery).
type (
	// Timing is one sequential arc with folded setup/hold bounds.
	Timing = skew.Timing
	// Buffers describes the tunable-buffer value space of a circuit.
	Buffers = skew.Buffers
)

// Experiment harness types.
type (
	// ExpConfig parameterizes the table/figure runners.
	ExpConfig = exp.Config
	// Table1Row, Table2Row, Fig7Row, Fig8Row mirror the paper's results.
	Table1Row = exp.Table1Row
	Table2Row = exp.Table2Row
	Fig7Row   = exp.Fig7Row
	Fig8Row   = exp.Fig8Row
)

// Profiles returns the eight benchmark profiles of the paper's Table 1.
func Profiles() []Profile { return circuit.Table1Profiles }

// ProfileByName looks up a Table 1 benchmark profile.
func ProfileByName(name string) (Profile, bool) { return circuit.ProfileByName(name) }

// NewProfile builds a custom benchmark profile.
func NewProfile(name string, ffs, gates, buffers, paths int) Profile {
	return circuit.TinyProfile(name, ffs, gates, buffers, paths)
}

// Generate builds a deterministic benchmark circuit with default generator
// settings.
func Generate(p Profile, seed int64) (*Circuit, error) { return circuit.Generate(p, seed) }

// GenerateWith builds a benchmark circuit with custom generator settings.
func GenerateWith(p Profile, seed int64, cfg GenConfig) (*Circuit, error) {
	return circuit.GenerateWith(p, seed, cfg)
}

// DefaultGenConfig returns the paper-calibrated generator configuration.
func DefaultGenConfig() GenConfig { return circuit.DefaultGenConfig() }

// WriteNetlist serializes a circuit to the text netlist format.
func WriteNetlist(w io.Writer, c *Circuit) error { return circuit.WriteNetlist(w, c) }

// ParseNetlist reads a circuit back from the text netlist format.
func ParseNetlist(r io.Reader) (*Circuit, error) { return circuit.ParseNetlist(r) }

// WriteDOT emits the circuit's timing graph in Graphviz DOT form.
func WriteDOT(w io.Writer, c *Circuit) error { return circuit.WriteDOT(w, c) }

// DefaultConfig returns the paper-aligned EffiTest flow configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// SampleChip manufactures one chip deterministically in (seed, index).
func SampleChip(c *Circuit, seed int64, index int) *Chip { return tester.SampleChip(c, seed, index) }

// SampleChips manufactures n chips.
func SampleChips(c *Circuit, seed int64, n int) []*Chip { return tester.SampleChips(c, seed, n) }

// NewATE opens a tester session on a chip with the given clock-period
// resolution.
func NewATE(ch *Chip, resolution float64) *ATE { return tester.NewATE(ch, resolution) }

// MinPeriodUnconstrained returns the minimum clock period achievable with
// unlimited skew — the maximum cycle mean of the setup delays (Figure 2's
// 8 → 5.5 example).
func MinPeriodUnconstrained(n int, arcs []Timing) (float64, bool) {
	return skew.MinPeriodUnconstrained(n, arcs)
}

// FeasibleSkews returns buffer values meeting setup (period T) and hold
// within continuous buffer ranges, or ok=false.
func FeasibleSkews(T float64, arcs []Timing, b Buffers) ([]float64, bool) {
	return skew.Feasible(T, arcs, b)
}

// FeasibleSkewsDiscrete is FeasibleSkews restricted exactly to the buffer
// lattices. It assumes one step size for all buffers, that is one range
// width at the common step count, as the buffers of every Circuit that
// passes Validate have; with mixed steps it solves on the finest, so it
// may wrongly answer infeasible or return values off a wider buffer's own
// lattice.
func FeasibleSkewsDiscrete(T float64, arcs []Timing, b Buffers) ([]float64, bool) {
	return skew.FeasibleDiscrete(T, arcs, b)
}

// UniformBuffers builds a buffer space with identical ranges on the given
// flip-flops.
func UniformBuffers(n int, buffered []int, lo, hi float64, steps int) Buffers {
	return skew.Uniform(n, buffered, lo, hi, steps)
}

// PeriodQuantile estimates the q-quantile of the no-tuning critical delay
// (used to calibrate the paper's T1/T2).
func PeriodQuantile(c *Circuit, seed int64, chips int, q float64) float64 {
	return yield.PeriodQuantile(c, seed, chips, q)
}

// YieldNoBuffer and YieldIdeal evaluate two of the three regimes the paper
// compares; (*Engine).Yield evaluates the third, the full EffiTest flow.
func YieldNoBuffer(chips []*Chip, T float64) float64 { return yield.NoBuffer(chips, T) }

// YieldIdeal is the yield with perfect per-chip delay measurement.
func YieldIdeal(c *Circuit, chips []*Chip, T float64) float64 { return yield.Ideal(c, chips, T) }

// YieldCurvePoint is one sample of a yield-versus-period sweep.
type YieldCurvePoint = yield.CurvePoint

// YieldCurve sweeps the clock period and evaluates no-buffer and
// ideal-tuning yields at each step.
func YieldCurve(c *Circuit, chips []*Chip, loT, hiT float64, steps int) []YieldCurvePoint {
	return yield.Curve(c, chips, loT, hiT, steps)
}

// ComputeHoldBounds derives the §3.5 hold-time tuning bounds λ by
// Monte-Carlo sampling of the short-path delays.
func ComputeHoldBounds(c *Circuit, cfg Config) (*HoldBounds, error) {
	return core.ComputeHoldBounds(c, cfg)
}

// HoldYieldEstimate replays the sampled hold quantities against bounds and
// returns the covered fraction (the Eq. 20 yield). It rejects the same
// HoldSamples/HoldYield values ComputeHoldBounds does.
func HoldYieldEstimate(c *Circuit, hb *HoldBounds, cfg Config) (float64, error) {
	return core.HoldYieldEstimate(c, hb, cfg)
}

// InitBounds builds the μ±3σ starting delay windows for every path.
func InitBounds(c *Circuit) *Bounds { return core.InitBounds(c) }

// NoHoldBounds is a hold-bound function imposing no constraints (for
// baseline studies).
func NoHoldBounds(from, to int) float64 { return core.NoHoldBounds(from, to) }

// PathwiseTest measures the given paths one at a time by binary-search
// frequency stepping (the prior-art baseline of Table 1's t′a column) on
// any measurement session (an *ATE, or any Session). It returns the total
// tester iterations and the measured windows.
func PathwiseTest(sess Session, c *Circuit, paths []int, cfg Config) (int, *Bounds, error) {
	return baseline.Pathwise(context.Background(), sess, c, paths, cfg)
}

// MultiplexTest measures the given paths in conflict-free batches, with or
// without delay alignment by the tuning buffers (Figure 8's second and third
// cases).
func MultiplexTest(sess Session, c *Circuit, paths []int, lambda func(from, to int) float64, cfg Config, align bool) (int, *Bounds, error) {
	return baseline.Multiplex(context.Background(), sess, c, paths, lambda, cfg, align)
}

// DefaultExpConfig returns the experiment-harness defaults.
func DefaultExpConfig() ExpConfig { return exp.DefaultConfig() }

// RunTable1, RunTable2, RunFig7 and RunFig8 regenerate one row/bar-group of
// the corresponding table or figure. The hot Monte-Carlo loops inside them
// fan out across cfg.Core.Workers goroutines; pass a context to cancel a
// long regeneration.
func RunTable1(ctx context.Context, p Profile, cfg ExpConfig) (Table1Row, error) {
	return exp.Table1(ctx, p, cfg)
}

// RunTable2 regenerates one row of the paper's Table 2.
func RunTable2(ctx context.Context, p Profile, cfg ExpConfig) (Table2Row, error) {
	return exp.Table2(ctx, p, cfg)
}

// RunFig7 regenerates one bar group of the paper's Figure 7.
func RunFig7(ctx context.Context, p Profile, cfg ExpConfig) (Fig7Row, error) {
	return exp.Fig7(ctx, p, cfg)
}

// RunFig8 regenerates one bar group of the paper's Figure 8.
func RunFig8(ctx context.Context, p Profile, cfg ExpConfig) (Fig8Row, error) {
	return exp.Fig8(ctx, p, cfg)
}

// FormatTable1, FormatTable2, FormatFig7 and FormatFig8 render measured rows
// side by side with the paper's published numbers.
func FormatTable1(rows []Table1Row) string { return exp.FormatTable1(rows) }

// FormatTable2 renders Table 2 rows.
func FormatTable2(rows []Table2Row) string { return exp.FormatTable2(rows) }

// FormatFig7 renders the Figure 7 series.
func FormatFig7(rows []Fig7Row) string { return exp.FormatFig7(rows) }

// FormatFig8 renders the Figure 8 series.
func FormatFig8(rows []Fig8Row) string { return exp.FormatFig8(rows) }

// Workload registry: the sister-paper campaign types that run over the
// engine (package workload). A campaign's workload rides fleet specs and
// the HTTP wire by name; WorkloadTypes lists the registered names and
// CheckWorkload validates a (workload, bin edges, drift) triple the same
// way every entry point — manifest validator, fleet manager, HTTP submit,
// shard coordinator — does.
var (
	// WorkloadTypes returns the registered workload type names.
	WorkloadTypes = workload.Types
	// ValidWorkload reports whether a name is a registered workload type.
	ValidWorkload = workload.Valid
	// CheckWorkload validates workload parameters as they appear on a
	// campaign spec.
	CheckWorkload = workload.Check
	// AchievedPeriod returns a chip's post-tuning achievable period under
	// a configured buffer vector — the clock-binning classification
	// quantity.
	AchievedPeriod = (*Chip).AchievedPeriod
	// ApplyDrift returns a copy of a chip aged by a delay-drift factor
	// (aging-drift campaigns).
	ApplyDrift = workload.ApplyDrift
)

// Workload type names (see package workload).
const (
	WorkloadEffiTest     = workload.TypeEffiTest
	WorkloadClockBinning = workload.TypeClockBinning
	WorkloadAgingDrift   = workload.TypeAgingDrift
)

// BinAgg is the exactly-mergeable clock-binning histogram (package
// workload): integer chip counts per period bin, Merge associative and
// commutative like yield.Agg's.
type BinAgg = workload.BinAgg

// NewBinAgg returns an empty clock-binning histogram over ascending
// period bin edges.
var NewBinAgg = workload.NewBinAgg
