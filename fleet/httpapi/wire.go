// Package httpapi defines the HTTP/JSON surface of effitestd — the wire
// types shared by the server and the Go client (package fleet/client) —
// and the server implementation over a fleet.Manager.
//
// The API is deliberately small and deterministic:
//
//	GET    /healthz                      liveness + pool/registry gauges
//	GET    /stats                        registry + manager load counters
//	POST   /v1/campaigns                 submit a campaign (async; 202)
//	GET    /v1/campaigns                 list campaign statuses
//	GET    /v1/campaigns/{id}            one campaign status
//	GET    /v1/campaigns/{id}/results    NDJSON result stream, input order
//	                                     (?from=N resumes mid-stream)
//	GET    /v1/campaigns/{id}/aggregate  canonical aggregate JSON
//	DELETE /v1/campaigns/{id}            cancel
//	POST   /v1/plans                     upload a binary plan artifact
//	GET    /v1/plans                     list stored artifact ids
//	GET    /v1/plans/{id}                download an artifact
//
// Every per-chip field served on the wire is deterministic (Go's JSON
// float encoding round-trips exactly), so a campaign served over loopback
// is bit-identical to an in-process Engine.RunChips run — the conformance
// suite pins that.
package httpapi

import (
	"fmt"
	"strings"
	"time"

	"effitest"
	"effitest/fleet"
	"effitest/workload"
)

// CampaignRequest submits one campaign.
type CampaignRequest struct {
	// Name is a free-form label.
	Name string `json:"name,omitempty"`
	// Circuit selects or inlines the circuit under test.
	Circuit CircuitSpec `json:"circuit"`
	// Config layers flow parameters over the paper defaults.
	Config ConfigSpec `json:"config"`
	// Chips picks the deterministic chip population.
	Chips ChipSpec `json:"chips"`
	// Workload selects the campaign type (package workload): effitest
	// (default), clock-binning or aging-drift.
	Workload string `json:"workload,omitempty"`
	// BinEdges are the ascending period bin edges of a clock-binning
	// campaign, in ns; the aggregate then carries a per-bin chip histogram.
	BinEdges []float64 `json:"bin_edges,omitempty"`
	// Drift scales every sampled chip's realized delays by (1+Drift)
	// before execution (aging-drift campaigns).
	Drift float64 `json:"drift,omitempty"`
	// PlanID references a previously uploaded plan artifact; the campaign's
	// engine is then built from the artifact instead of running Prepare.
	PlanID string `json:"plan_id,omitempty"`
	// Key is an optional client-chosen idempotency key (1–128 bytes of
	// [A-Za-z0-9._-]). Submitting a key the daemon already knows returns
	// the existing campaign with 200 instead of creating a duplicate — so
	// a client that got a 5xx for a submit the daemon actually committed
	// (or that raced a daemon restart) can retry blindly. Keys survive
	// daemon restarts when the daemon journals campaigns (-journal-dir).
	Key string `json:"key,omitempty"`
}

// Spec decodes the request into the campaign it names: the circuit built,
// the config translated into engine options, and every other field copied
// through. It is the one request-to-campaign translation shared by the
// submit handler, journal recovery and in-process runners. JournalPayload
// and Plan are left to the caller: only the caller holds the raw body, and
// a plan_id that does not resolve means different things on submit (an
// error) and on recovery (dropped — the registry re-Prepares identically).
func (req CampaignRequest) Spec() (fleet.CampaignSpec, error) {
	c, err := req.Circuit.Build()
	if err != nil {
		return fleet.CampaignSpec{}, err
	}
	opts, err := req.Config.Options()
	if err != nil {
		return fleet.CampaignSpec{}, err
	}
	return fleet.CampaignSpec{
		Name:      req.Name,
		Circuit:   c,
		Options:   opts,
		ChipSeed:  req.Chips.Seed,
		ChipCount: req.Chips.Count,
		ChipFirst: req.Chips.First,
		Workload:  req.Workload,
		BinEdges:  req.BinEdges,
		Drift:     req.Drift,
		Key:       req.Key,
		PlanID:    req.PlanID,
	}, nil
}

// CircuitSpec names a circuit three ways: a Table-1 benchmark profile, a
// custom synthetic profile, or an inline netlist (the text form produced by
// effitest.WriteNetlist). Exactly one must be set.
type CircuitSpec struct {
	Profile string         `json:"profile,omitempty"`
	Custom  *CustomProfile `json:"custom,omitempty"`
	Netlist string         `json:"netlist,omitempty"`
	// GenSeed seeds the benchmark generator (profile and custom forms).
	GenSeed int64 `json:"gen_seed,omitempty"`
}

// CustomProfile is a synthetic benchmark profile (effitest.NewProfile).
type CustomProfile struct {
	Name    string `json:"name"`
	FFs     int    `json:"ffs"`
	Gates   int    `json:"gates"`
	Buffers int    `json:"buffers"`
	Paths   int    `json:"paths"`
}

// Build materializes the circuit.
func (cs CircuitSpec) Build() (*effitest.Circuit, error) {
	set := 0
	for _, ok := range []bool{cs.Profile != "", cs.Custom != nil, cs.Netlist != ""} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("circuit: exactly one of profile, custom or netlist must be set")
	}
	switch {
	case cs.Netlist != "":
		return effitest.ParseNetlist(strings.NewReader(cs.Netlist))
	case cs.Custom != nil:
		p := effitest.NewProfile(cs.Custom.Name, cs.Custom.FFs, cs.Custom.Gates, cs.Custom.Buffers, cs.Custom.Paths)
		return effitest.Generate(p, cs.GenSeed)
	default:
		p, ok := effitest.ProfileByName(cs.Profile)
		if !ok {
			return nil, fmt.Errorf("circuit: unknown profile %q", cs.Profile)
		}
		return effitest.Generate(p, cs.GenSeed)
	}
}

// ConfigSpec maps the engine's functional options onto JSON. Zero values
// mean "paper default".
type ConfigSpec struct {
	// Align selects the §3.3 alignment solver: heuristic | fast-milp |
	// paper-ilp | off.
	Align string `json:"align,omitempty"`
	// Eps is the delay-range termination threshold in ns.
	Eps float64 `json:"eps,omitempty"`
	// Seed is the master random seed.
	Seed int64 `json:"seed,omitempty"`
	// MaxBatch caps test batch sizes.
	MaxBatch int `json:"max_batch,omitempty"`
	// Period pins the test clock period Td in ns; when 0, the period is
	// calibrated as the Quantile-quantile over CalibChips Monte-Carlo
	// chips (defaults: the paper's T2 = 0.8413 over 2000).
	Period     float64 `json:"period,omitempty"`
	Quantile   float64 `json:"quantile,omitempty"`
	CalibChips int     `json:"calib_chips,omitempty"`
}

// Options translates the spec into engine options.
func (cf ConfigSpec) Options() ([]effitest.Option, error) {
	var opts []effitest.Option
	switch strings.ToLower(cf.Align) {
	case "":
	case "heuristic":
		opts = append(opts, effitest.WithAlignMode(effitest.AlignHeuristic))
	case "fast-milp":
		opts = append(opts, effitest.WithAlignMode(effitest.AlignFastMILP))
	case "paper-ilp":
		opts = append(opts, effitest.WithAlignMode(effitest.AlignPaperILP))
	case "off":
		opts = append(opts, effitest.WithAlignMode(effitest.AlignOff))
	default:
		return nil, fmt.Errorf("config: unknown align mode %q", cf.Align)
	}
	if cf.Eps != 0 {
		opts = append(opts, effitest.WithEpsilon(cf.Eps))
	}
	if cf.Seed != 0 {
		opts = append(opts, effitest.WithSeed(cf.Seed))
	}
	if cf.MaxBatch != 0 {
		opts = append(opts, effitest.WithMaxBatch(cf.MaxBatch))
	}
	switch {
	case cf.Period != 0:
		opts = append(opts, effitest.WithPeriod(cf.Period))
	case cf.Quantile != 0:
		calib := cf.CalibChips
		if calib == 0 {
			calib = 2000
		}
		opts = append(opts, effitest.WithPeriodQuantile(cf.Quantile, calib))
	case cf.CalibChips != 0:
		opts = append(opts, effitest.WithPeriodQuantile(0.8413, cf.CalibChips))
	}
	return opts, nil
}

// ChipSpec is the deterministic chip population: Count chips sampled in
// (Seed, index) from the engine's circuit, starting at manufacturing index
// First (default 0). A non-zero First addresses a shard of a larger
// population: the campaign runs chips [First, First+Count) of the Seed-keyed
// population, bit-identical to the same positions of a single whole-range
// campaign — which is how the fleet coordinator splits one population
// across daemons.
type ChipSpec struct {
	Seed  int64 `json:"seed"`
	Count int   `json:"count"`
	First int   `json:"first,omitempty"`
}

// CampaignStatus is one campaign's snapshot on the wire.
type CampaignStatus struct {
	ID           string     `json:"id"`
	Name         string     `json:"name,omitempty"`
	Workload     string     `json:"workload,omitempty"`
	State        string     `json:"state"`
	ChipsTotal   int        `json:"chips_total"`
	ChipsDone    int        `json:"chips_done"`
	ChipsPassed  int        `json:"chips_passed"`
	ChipsFailed  int        `json:"chips_failed"`
	RunningYield float64    `json:"running_yield"`
	Period       float64    `json:"period,omitempty"`
	Error        string     `json:"error,omitempty"`
	Aggregate    *Aggregate `json:"aggregate,omitempty"`
	SubmittedAt  time.Time  `json:"submitted_at"`
	StartedAt    *time.Time `json:"started_at,omitempty"`
	FinishedAt   *time.Time `json:"finished_at,omitempty"`
}

// Aggregate is the campaign's streaming aggregate over error-free chip
// outcomes. Every field is deterministic (wall-clock solver times are
// deliberately excluded), so it diffs exactly against golden files and
// against an in-process run.
type Aggregate struct {
	Chips          int     `json:"chips"`
	Yield          float64 `json:"yield"`
	AvgIterations  float64 `json:"avg_iterations"`
	AvgScanBits    float64 `json:"avg_scan_bits"`
	ConfiguredFrac float64 `json:"configured_frac"`
	// Bins is the clock-binning histogram (clock-binning campaigns only):
	// one chip count per period bin edge, ascending, exact integers merged
	// bit-identically across shards. Unbinned counts chips slower than
	// every edge or never configured.
	Bins     []BinCount `json:"bins,omitempty"`
	Unbinned int        `json:"unbinned,omitempty"`
}

// BinCount is one clock-binning histogram bucket on the wire.
type BinCount struct {
	// Edge is the bin's period upper bound in ns.
	Edge float64 `json:"edge"`
	// Count is the chips whose achieved period fell in this bin.
	Count int `json:"count"`
}

// BinsWire converts a workload.BinAgg to its wire form.
func BinsWire(b *workload.BinAgg) ([]BinCount, int) {
	if b == nil {
		return nil, 0
	}
	bins := make([]BinCount, len(b.Edges))
	for i, e := range b.Edges {
		bins[i] = BinCount{Edge: e, Count: b.Counts[i]}
	}
	return bins, b.Unbinned
}

// ChipResult is one per-chip result on the NDJSON stream. All fields are
// deterministic; wall-clock durations are excluded.
type ChipResult struct {
	// Index is the chip's position in the campaign population; results
	// stream in ascending Index.
	Index int `json:"index"`
	// ChipIndex is the manufacturing index (ChipSpec sampling).
	ChipIndex  int       `json:"chip_index"`
	Iterations int       `json:"iterations,omitempty"`
	ScanBits   int64     `json:"scan_bits,omitempty"`
	Configured bool      `json:"configured,omitempty"`
	Passed     bool      `json:"passed,omitempty"`
	Xi         float64   `json:"xi,omitempty"`
	X          []float64 `json:"x,omitempty"`
	// AchievedPeriod is the chip's post-tuning achievable period under the
	// configured buffer vector (configured chips only): the clock-binning
	// classification quantity, computed daemon-side so remote consumers —
	// the shard coordinator folding a fleet-wide histogram — bin on the
	// identical float64 the local flow saw.
	AchievedPeriod float64 `json:"achieved_period,omitempty"`
	// BoundsLoSum / BoundsHiSum summarize the final per-path delay windows
	// (the full arrays are large; the sums still pin every bit of drift).
	BoundsLoSum float64 `json:"bounds_lo_sum,omitempty"`
	BoundsHiSum float64 `json:"bounds_hi_sum,omitempty"`
	// Error is the per-chip failure, if any.
	Error string `json:"error,omitempty"`
}

// Health is the /healthz document.
type Health struct {
	Status    string `json:"status"`
	Workers   int    `json:"workers"`
	Campaigns int    `json:"campaigns"`
	// Engines / Prepares mirror the registry gauges: live engines and cold
	// offline Prepares since start.
	Engines  int `json:"engines"`
	Prepares int `json:"prepares"`
}

// PlanRef is the response to a plan upload and the element of plan lists.
type PlanRef struct {
	ID string `json:"id"`
}

// Stats is the /stats document: the engine-registry counters plus the
// manager's campaign/chip load gauges. The fleet coordinator reads it for
// least-loaded shard placement; humans read it to see what a daemon is
// doing.
type Stats struct {
	Workers int `json:"workers"`

	// Registry traffic (see fleet.RegistryStats).
	EnginesLive       int `json:"engines_live"`
	RegistryHits      int `json:"registry_hits"`
	RegistryMisses    int `json:"registry_misses"`
	RegistryPrepares  int `json:"registry_prepares"`
	RegistryEvictions int `json:"registry_evictions"`

	// Campaign table by state (see fleet.ManagerStats).
	Campaigns          int `json:"campaigns"`
	CampaignsQueued    int `json:"campaigns_queued"`
	CampaignsRunning   int `json:"campaigns_running"`
	CampaignsDone      int `json:"campaigns_done"`
	CampaignsCancelled int `json:"campaigns_cancelled"`
	CampaignsFailed    int `json:"campaigns_failed"`

	// Admission control: the non-terminal campaign bound (0 = unbounded)
	// and submissions refused at that bound since start.
	QueueLimit        int   `json:"queue_limit,omitempty"`
	CampaignsRejected int64 `json:"campaigns_rejected,omitempty"`

	// Chip-level load: executed since start, resolved-but-undispatched, and
	// dispatched-without-result. Pending+InFlight is the backlog a new
	// shard queues behind.
	ChipsExecuted int64 `json:"chips_executed"`
	ChipsPending  int   `json:"chips_pending"`
	ChipsInFlight int   `json:"chips_in_flight"`

	// Durability: campaigns rebuilt from the journal at boot, chip results
	// replayed from it instead of re-executed (chips_executed excludes
	// them), and the journal's footprint and append-failure count. All
	// zero when the daemon runs without -journal-dir.
	CampaignsRecovered  int64 `json:"campaigns_recovered,omitempty"`
	ChipsReplayed       int64 `json:"chips_replayed,omitempty"`
	JournalSegments     int   `json:"journal_segments,omitempty"`
	JournalBytes        int64 `json:"journal_bytes,omitempty"`
	JournalAppendErrors int64 `json:"journal_append_errors,omitempty"`
}

// StatsWire merges the registry and manager snapshots into the wire form.
func StatsWire(rs fleet.RegistryStats, ms fleet.ManagerStats) Stats {
	return Stats{
		Workers:            ms.Workers,
		EnginesLive:        rs.Live,
		RegistryHits:       rs.Hits,
		RegistryMisses:     rs.Misses,
		RegistryPrepares:   rs.Prepares,
		RegistryEvictions:  rs.Evictions,
		Campaigns:          ms.Campaigns,
		CampaignsQueued:    ms.CampaignsQueued,
		CampaignsRunning:   ms.CampaignsRunning,
		CampaignsDone:      ms.CampaignsDone,
		CampaignsCancelled: ms.CampaignsCancelled,
		CampaignsFailed:    ms.CampaignsFailed,
		QueueLimit:         ms.QueueLimit,
		CampaignsRejected:  ms.CampaignsRejected,
		ChipsExecuted:      ms.ChipsExecuted,
		ChipsPending:       ms.ChipsPending,
		ChipsInFlight:      ms.ChipsInFlight,

		CampaignsRecovered:  ms.CampaignsRecovered,
		ChipsReplayed:       ms.ChipsReplayed,
		JournalSegments:     ms.JournalSegments,
		JournalBytes:        ms.JournalBytes,
		JournalAppendErrors: ms.JournalAppendErrors,
	}
}

// StatusWire converts a fleet.Status to its wire form.
func StatusWire(st fleet.Status) CampaignStatus {
	ws := CampaignStatus{
		ID:           st.ID,
		Name:         st.Name,
		Workload:     st.Workload,
		State:        string(st.State),
		ChipsTotal:   st.ChipsTotal,
		ChipsDone:    st.ChipsDone,
		ChipsPassed:  st.ChipsPassed,
		ChipsFailed:  st.ChipsFailed,
		RunningYield: st.RunningYield,
		Period:       st.Period,
		SubmittedAt:  st.SubmittedAt,
	}
	if st.Err != nil {
		ws.Error = st.Err.Error()
	}
	if !st.StartedAt.IsZero() {
		t := st.StartedAt
		ws.StartedAt = &t
	}
	if !st.FinishedAt.IsZero() {
		t := st.FinishedAt
		ws.FinishedAt = &t
	}
	if st.Stats != (effitest.ProposedStats{}) || st.State == fleet.StateDone {
		ws.Aggregate = &Aggregate{
			Chips:          st.ChipsDone - st.ChipsFailed,
			Yield:          st.Stats.Yield,
			AvgIterations:  st.Stats.AvgIterations,
			AvgScanBits:    st.Stats.AvgScanBits,
			ConfiguredFrac: st.Stats.ConfiguredFrac,
		}
		ws.Aggregate.Bins, ws.Aggregate.Unbinned = BinsWire(st.Bins)
	}
	return ws
}

// ResultWire converts a per-chip result to its wire form; chipIndex is the
// chip's manufacturing index (Chip.Index, or a campaign's ChipFirst+Index).
func ResultWire(r effitest.ChipResult, chipIndex int) ChipResult {
	w := ChipResult{Index: r.Index, ChipIndex: chipIndex}
	if r.Err != nil {
		w.Error = r.Err.Error()
		return w
	}
	out := r.Outcome
	w.Iterations = out.Iterations
	w.ScanBits = out.ScanBits
	w.Configured = out.Configured
	w.Passed = out.Passed
	w.Xi = out.Xi
	w.X = out.X
	w.AchievedPeriod = out.AchievedPeriod
	if out.Bounds != nil {
		for i := range out.Bounds.Lo {
			w.BoundsLoSum += out.Bounds.Lo[i]
			w.BoundsHiSum += out.Bounds.Hi[i]
		}
	}
	return w
}
