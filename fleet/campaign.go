package fleet

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"effitest"
	"effitest/fleet/journal"
	"effitest/internal/pool"
	"effitest/internal/yield"
	"effitest/workload"
)

// Sentinel errors of the campaign layer; match with errors.Is.
var (
	// ErrManagerClosed tags work refused or abandoned because the manager
	// is shutting down.
	ErrManagerClosed = errors.New("fleet: manager closed")
	// ErrCampaignCancelled tags chips abandoned by Campaign.Cancel before
	// they were dispatched.
	ErrCampaignCancelled = errors.New("fleet: campaign cancelled")
	// ErrQueueFull tags a Submit refused by admission control: the manager's
	// campaign backlog (WithMaxQueuedCampaigns) is at its bound. The request
	// itself is fine — retry after backing off (the HTTP surface maps this to
	// 429 with a Retry-After header).
	ErrQueueFull = errors.New("fleet: campaign queue full")
)

// State is a campaign's lifecycle phase.
type State string

// Campaign states. Queued covers both engine resolution (the registry may
// be running Prepare) and waiting for pool capacity; Cancelled and Failed
// are terminal like Done, but a cancelled campaign may still be draining
// its in-flight chips when the state first reads Cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed"
)

// Terminal reports whether the state is final (done, cancelled or failed).
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// CampaignSpec names a batch of chips to run as one asynchronous job.
type CampaignSpec struct {
	// Name is a free-form label carried through Status.
	Name string
	// Circuit is the circuit under test. When another campaign already
	// registered the same content, the registry's instance is used; chips
	// are always manufactured from the engine's circuit.
	Circuit *effitest.Circuit
	// Options configure the engine (see effitest.New). Execution knobs
	// (WithWorkers) are irrelevant here: each campaign chip runs alone on
	// one worker of the manager's shared pool.
	Options []effitest.Option
	// Plan, when non-nil, supplies a pre-built plan artifact; the engine is
	// constructed directly from it, bypassing the registry.
	Plan *effitest.Plan
	// Chips is an explicit chip population. Every chip must reference the
	// engine's circuit instance; prefer ChipSeed/ChipCount, which sample
	// from it deterministically.
	Chips []*effitest.Chip
	// ChipSeed/ChipCount sample the population deterministically (see
	// Engine.SampleChips) when Chips is nil.
	ChipSeed  int64
	ChipCount int
	// ChipFirst offsets the sampled population: the campaign runs the chips
	// with manufacturing indices [ChipFirst, ChipFirst+ChipCount) of the
	// ChipSeed-keyed population (see Engine.SampleChipRange). A coordinator
	// shards one logical population across daemons by submitting each node
	// a different range of the same seed; per-chip numbers are identical to
	// a single campaign over the whole population.
	ChipFirst int
	// Workload selects the campaign type (package workload): "" or
	// workload.TypeEffiTest for the standard tune-and-predict flow,
	// TypeClockBinning or TypeAgingDrift for the sister-paper workloads.
	Workload string
	// BinEdges are the ascending period bin edges of a clock-binning
	// campaign; the campaign then folds every chip's post-tuning achieved
	// period into an exactly-mergeable per-bin histogram (Status.Bins).
	BinEdges []float64
	// Drift scales every chip's realized delays by (1+Drift) after
	// sampling, modeling aged silicon (aging-drift campaigns). Applied
	// identically on every shard, so sharded drift campaigns stay
	// bit-identical to whole-population runs.
	Drift float64
	// Key is an optional client-chosen idempotency key. Submitting a spec
	// whose Key matches a live or finished campaign returns that campaign
	// instead of creating a duplicate — so a client that got a 5xx for a
	// submit the manager actually committed can retry blindly.
	Key string
	// PlanID names the plan artifact the spec's Plan was decoded from, for
	// journal provenance. Informational; the journal's recovery path may
	// re-Prepare when the artifact is gone (deterministically identical).
	PlanID string
	// JournalPayload is the serialized form of this spec that the journal
	// stores and Manager.Recover hands back to its decoder after a restart
	// (Options are closures and cannot be persisted directly). Required for
	// durability when the manager has a journal: a spec without it is
	// executed but not recoverable, and is journaled only for accounting.
	JournalPayload []byte
}

// Status is a point-in-time snapshot of a campaign.
type Status struct {
	ID    string
	Name  string
	State State
	// Workload is the campaign's canonical workload type name.
	Workload string

	// ChipsTotal is the population size (0 until the engine is resolved
	// when the spec sampled by seed/count).
	ChipsTotal int
	// ChipsDone counts chips with a result, including per-chip errors.
	ChipsDone int
	// ChipsPassed / ChipsFailed split ChipsDone into final-test passes and
	// per-chip errors (a configured-but-failing chip is neither).
	ChipsPassed int
	ChipsFailed int
	// RunningYield is ChipsPassed over chips with an error-free outcome so
	// far — the live estimate that converges to Stats.Yield.
	RunningYield float64
	// Stats aggregates the error-free outcomes observed so far; final once
	// the campaign settles. Sharded aggregation is exact: these are the
	// same numbers a sequential Engine run would report.
	Stats effitest.ProposedStats
	// Period is the engine's calibrated test period (0 while queued).
	Period float64
	// Bins is the clock-binning histogram snapshot (clock-binning
	// campaigns only, nil otherwise). Like Stats, it folds exactly: a
	// sharded campaign's merged bins equal a sequential run's.
	Bins *workload.BinAgg
	// Err is the campaign-level failure (engine construction or sampling),
	// nil for per-chip errors, which live in the result stream.
	Err error

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
}

// Campaign is one submitted batch job. All methods are safe for concurrent
// use.
type Campaign struct {
	id       string
	name     string
	key      string // idempotency key ("" = none)
	workload string // canonical workload type name
	m        *Manager

	ctx    context.Context
	cancel context.CancelFunc

	// journaled marks a campaign with a segment in the manager's journal;
	// replay carries chip records recovered from it, consumed by prepare.
	// journalSettleOnce writes the segment's terminal record exactly once.
	journaled         bool
	replay            []journal.ChipRecord
	journalSettleOnce sync.Once

	// nextDispatch is the index of the first undispatched chip; it is owned
	// by the manager and only touched under m.mu.
	nextDispatch int

	mu        sync.Mutex
	cond      *sync.Cond
	state     State
	err       error
	eng       *effitest.Engine
	chips     []*effitest.Chip
	results   []*effitest.ChipResult // fixed size once chips resolve; nil entries pending
	completed int
	agg       yield.Agg
	bins      *workload.BinAgg // clock-binning histogram (nil otherwise)
	failed    int              // per-chip errors
	cancelled bool
	// settleOnce releases this campaign's admission-control slot exactly
	// once, on its first transition to a terminal state.
	settleOnce sync.Once

	submitted time.Time
	started   time.Time
	finished  time.Time
}

// ID returns the manager-assigned campaign identifier.
func (c *Campaign) ID() string { return c.id }

// Name returns the submitted campaign name.
func (c *Campaign) Name() string { return c.name }

// Key returns the campaign's idempotency key ("" when none was supplied).
func (c *Campaign) Key() string { return c.key }

// Status returns a point-in-time snapshot.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:          c.id,
		Name:        c.name,
		State:       c.state,
		Workload:    c.workload,
		ChipsTotal:  len(c.results),
		ChipsDone:   c.completed,
		ChipsPassed: c.agg.Passed,
		ChipsFailed: c.failed,
		Stats:       c.agg.Stats(),
		Bins:        c.bins.Clone(),
		Err:         c.err,
		SubmittedAt: c.submitted,
		StartedAt:   c.started,
		FinishedAt:  c.finished,
	}
	if c.agg.Chips > 0 {
		st.RunningYield = float64(c.agg.Passed) / float64(c.agg.Chips)
	}
	if c.eng != nil {
		st.Period = c.eng.Period()
	}
	return st
}

// Engine returns the campaign's resolved engine (nil while queued).
func (c *Campaign) Engine() *effitest.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng
}

// Cancel stops the campaign: chips not yet dispatched to the pool get an
// ErrCampaignCancelled result immediately, in-flight chips are aborted
// through their context and deliver promptly, and the campaign settles as
// Cancelled. Cancelling a terminal campaign is a no-op.
func (c *Campaign) Cancel() {
	c.cancel()
	c.m.mu.Lock()
	c.m.dropActiveLocked(c)
	start := c.nextDispatch
	c.nextDispatch = 1 << 30
	c.m.mu.Unlock()

	c.mu.Lock()
	c.settleLocked(start, ErrCampaignCancelled)
	c.mu.Unlock()
	c.journalSettle()
}

// noteTerminalLocked releases the campaign's admission slot on its first
// transition into a terminal state. Called with c.mu held; it only touches
// manager atomics, so the m.mu-before-c.mu lock order is respected.
func (c *Campaign) noteTerminalLocked() {
	c.settleOnce.Do(func() { c.m.backlog.Add(-1) })
}

// settleLocked abandons every unresolved chip from start on with err and
// settles the campaign as Cancelled; a no-op when already terminal.
// In-flight chips (indices below start without a result) still deliver
// afterwards — the finished stamp lands when the last one does, or here
// when nothing is left in flight. Called with c.mu held.
func (c *Campaign) settleLocked(start int, err error) {
	if c.state.Terminal() {
		return
	}
	c.cancelled = true
	c.fillFromLocked(start, err)
	c.state = StateCancelled
	c.noteTerminalLocked()
	// A campaign with no population (cancelled mid-prepare) settles here;
	// one with in-flight chips gets its stamp from the last deliver.
	if (c.results == nil || c.completed == len(c.results)) && c.finished.IsZero() {
		c.finished = time.Now()
	}
	c.cond.Broadcast()
}

// fillFromLocked tags every unresolved chip from start on with err. Called
// with c.mu held, after the manager stopped dispatching this campaign, so
// indices < start are either delivered or in flight (and will deliver
// themselves).
func (c *Campaign) fillFromLocked(start int, err error) {
	for i := start; i < len(c.results); i++ {
		if c.results[i] == nil {
			c.results[i] = &effitest.ChipResult{Index: i, Chip: c.chips[i], Err: err}
			c.completed++
			c.failed++
		}
	}
}

// Results streams the campaign's per-chip results strictly in input order,
// blocking until each next result exists — so a consumer can attach while
// the campaign runs (or long after it finished) and always observes the
// exact sequence Engine.RunChips would have produced. Every attached
// consumer gets the full stream; cancelling ctx detaches this consumer
// only. A campaign that failed before resolving its population yields
// nothing (see Status.Err).
func (c *Campaign) Results(ctx context.Context) iter.Seq[effitest.ChipResult] {
	return func(yieldFn func(effitest.ChipResult) bool) {
		stop := context.AfterFunc(ctx, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer stop()
		for i := 0; ; i++ {
			c.mu.Lock()
			for {
				if ctx.Err() != nil {
					c.mu.Unlock()
					return
				}
				if c.results != nil && i >= len(c.results) {
					c.mu.Unlock()
					return
				}
				if c.results != nil && c.results[i] != nil {
					break
				}
				if c.state.Terminal() && c.results == nil {
					c.mu.Unlock()
					return
				}
				c.cond.Wait()
			}
			res := *c.results[i]
			c.mu.Unlock()
			if !yieldFn(res) {
				return
			}
		}
	}
}

// Wait blocks until the campaign settles — terminal state with every chip
// resolved — and returns the final status. Cancelling ctx abandons the
// wait with its error; the campaign itself is unaffected.
func (c *Campaign) Wait(ctx context.Context) (Status, error) {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	for !(c.state.Terminal() && (c.results == nil || c.completed == len(c.results))) {
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return Status{}, err
		}
		c.cond.Wait()
	}
	c.mu.Unlock()
	return c.Status(), nil
}

// prepare resolves the campaign's engine (through the registry unless the
// spec carries a plan) and population, then hands the campaign to the
// worker pool. Runs once, asynchronously, per Submit.
func (c *Campaign) prepare(spec CampaignSpec) {
	defer c.m.prepWG.Done()
	var eng *effitest.Engine
	var err error
	if spec.Plan != nil {
		opts := append(slices.Clone(spec.Options), effitest.WithPlan(spec.Plan))
		eng, err = effitest.NewCtx(c.ctx, spec.Circuit, opts...)
	} else {
		eng, err = c.m.reg.Engine(c.ctx, spec.Circuit, spec.Options...)
	}
	if err != nil {
		c.failPrep(err)
		return
	}
	chips := spec.Chips
	if chips == nil {
		if chips, err = eng.SampleChipRange(c.ctx, spec.ChipSeed, spec.ChipFirst, spec.ChipCount); err != nil {
			c.failPrep(err)
			return
		}
	}
	// Aging-drift campaigns age the population here — after deterministic
	// sampling, before journal replay or dispatch. The transform is a pure
	// per-chip function, so every shard of a sharded sweep ages its range
	// identically and drifted campaigns keep the bit-identity guarantees
	// of undrifted ones.
	chips = workload.ApplyDriftAll(chips, spec.Drift)
	c.mu.Lock()
	if c.state.Terminal() {
		c.mu.Unlock()
		return
	}
	c.eng = eng
	c.chips = chips
	c.results = make([]*effitest.ChipResult, len(chips))
	c.applyReplayLocked()
	settled := false
	if len(c.results) > 0 && c.completed == len(c.results) {
		// Every chip replayed from the journal: the campaign is already
		// done, it just never got to write its settle record.
		c.state = StateDone
		c.noteTerminalLocked()
		c.finished = time.Now()
		settled = true
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if settled {
		c.journalSettle()
		return
	}
	c.m.enqueue(c)
}

// applyReplayLocked folds journal-recovered chip records into the freshly
// resolved result set. A record is replayed only when it names a pending
// in-range position whose re-sampled chip carries the recorded
// manufacturing index — anything else re-executes, which is always
// correct, just slower. Called with c.mu held, before any dispatch.
func (c *Campaign) applyReplayLocked() {
	for _, rec := range c.replay {
		if rec.Index < 0 || rec.Index >= len(c.results) || c.results[rec.Index] != nil {
			continue
		}
		if c.chips[rec.Index].Index != rec.ChipIndex {
			continue
		}
		res := replayResult(c.chips[rec.Index], rec)
		c.results[rec.Index] = res
		c.completed++
		if res.Err != nil {
			c.failed++
		} else {
			c.observeLocked(res)
		}
		c.m.replayed.Add(1)
	}
	c.replay = nil
}

// failPrep marks a campaign that never reached the pool as failed (or
// cancelled, when the failure was its own cancellation).
func (c *Campaign) failPrep(err error) {
	c.mu.Lock()
	if c.state.Terminal() {
		c.mu.Unlock()
		return
	}
	if c.cancelled || c.ctx.Err() != nil {
		c.state = StateCancelled
	} else {
		c.state = StateFailed
	}
	c.noteTerminalLocked()
	c.err = err
	c.finished = time.Now()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.journalSettle()
}

// run executes one chip on the caller's (worker) goroutine and delivers
// its result.
func (c *Campaign) run(idx int) {
	c.mu.Lock()
	if c.state == StateQueued {
		c.state = StateRunning
		c.started = time.Now()
	}
	ch := c.chips[idx]
	eng := c.eng
	c.mu.Unlock()

	res := effitest.ChipResult{Index: idx, Chip: ch}
	if err := c.ctx.Err(); err != nil {
		res.Err = err
	} else if obs := c.m.obs; obs != nil {
		res.Outcome, res.Err = eng.RunChipObserved(c.ctx, ch, obs)
	} else {
		res.Outcome, res.Err = eng.RunChip(c.ctx, ch)
	}
	c.m.chipsExecuted.Add(1)
	c.journalChip(&res)
	c.deliver(res)
}

// deliver records one chip result, folds it into the streaming aggregate
// and settles the campaign when it was the last one.
func (c *Campaign) deliver(res effitest.ChipResult) {
	c.mu.Lock()
	if c.results[res.Index] != nil {
		c.mu.Unlock()
		return
	}
	c.results[res.Index] = &res
	c.completed++
	if res.Err != nil {
		c.failed++
	} else {
		c.observeLocked(&res)
	}
	settled := false
	if c.completed == len(c.results) {
		switch {
		case c.cancelled:
			c.state = StateCancelled
		default:
			c.state = StateDone
		}
		c.noteTerminalLocked()
		if c.finished.IsZero() {
			c.finished = time.Now()
		}
		settled = true
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if settled {
		c.journalSettle()
	}
}

// observeLocked folds one error-free chip result into the campaign's
// streaming aggregates: the yield.Agg always, and for clock-binning
// campaigns the period histogram, classified on the chip's post-tuning
// achieved period. Both folds are exact integer sums, so execution order
// and shard boundaries cannot change the totals. Called with c.mu held.
func (c *Campaign) observeLocked(res *effitest.ChipResult) {
	c.agg.Observe(res.Outcome)
	if c.bins == nil {
		return
	}
	if res.Outcome.Configured {
		c.bins.Observe(workload.AchievedPeriod(c.chips[res.Index], res.Outcome.X))
	} else {
		c.bins.ObserveUnbinned()
	}
}

// job is one (campaign, chip index) unit of pool work.
type job struct {
	c   *Campaign
	idx int
}

// Manager owns the shared execution resources of a fleet service: the
// engine registry, a bounded worker pool, and the campaign table. One
// Manager serves many concurrent campaigns over many circuits.
type Manager struct {
	reg       *Registry
	workers   int
	plans     *PlanStore
	obs       effitest.Observer
	maxQueued int // admission bound on non-terminal campaigns (0 = unbounded)
	journal   *journal.Journal

	chipsExecuted atomic.Int64 // chips run on the pool since start
	backlog       atomic.Int64 // campaigns in a non-terminal state
	rejected      atomic.Int64 // submissions refused by admission control
	recovered     atomic.Int64 // campaigns rebuilt from the journal at boot
	replayed      atomic.Int64 // chip results replayed from the journal

	stop         chan struct{}
	workerWG     sync.WaitGroup
	prepWG       sync.WaitGroup
	shutdownOnce sync.Once
	drained      chan struct{} // closed once the first Shutdown finishes draining

	mu sync.Mutex
	// ready wakes idle workers: signalled when a campaign joins the
	// round-robin set and when Shutdown closes the manager.
	ready     *sync.Cond
	closed    bool
	nextID    int
	campaigns map[string]*Campaign
	byKey     map[string]*Campaign // campaigns with an idempotency key
	order     []*Campaign
	active    []*Campaign // campaigns with undispatched chips, round-robin
	rr        int
}

// ManagerOption configures a Manager at construction time.
type ManagerOption func(*Manager) error

// WithWorkers bounds the shared chip-execution pool (0, the default, means
// one worker per logical CPU).
func WithWorkers(n int) ManagerOption {
	return func(m *Manager) error {
		if n < 0 {
			return fmt.Errorf("fleet: worker count must be non-negative, got %d", n)
		}
		m.workers = n
		return nil
	}
}

// WithRegistry substitutes a pre-built engine registry (shared with other
// managers, or configured via NewRegistry options).
func WithRegistry(r *Registry) ManagerOption {
	return func(m *Manager) error {
		m.reg = r
		return nil
	}
}

// WithMaxQueuedCampaigns bounds the campaign backlog: when n campaigns are
// in a non-terminal state (queued or running), further Submit calls are
// refused with ErrQueueFull instead of queueing unboundedly. 0 (the
// default) disables admission control. The HTTP surface translates the
// refusal into 429 + Retry-After, so well-behaved clients back off.
func WithMaxQueuedCampaigns(n int) ManagerOption {
	return func(m *Manager) error {
		if n < 0 {
			return fmt.Errorf("fleet: max queued campaigns must be non-negative, got %d", n)
		}
		m.maxQueued = n
		return nil
	}
}

// WithManagerObserver attaches a service-wide event sink: every chip run on
// the manager's pool emits its flow events (ChipDoneEvent, PredictEvent,
// BatchEndEvent, ...) to obs, alongside any per-engine observer. obs must
// be safe for concurrent use and quick — it runs inline on the hot path.
// This is how effitestd feeds its /metrics endpoint without making registry
// engines caller-private.
func WithManagerObserver(obs effitest.Observer) ManagerOption {
	return func(m *Manager) error {
		m.obs = obs
		return nil
	}
}

// NewManager builds a campaign manager and starts its worker pool. Shut it
// down with Shutdown.
func NewManager(opts ...ManagerOption) (*Manager, error) {
	m := &Manager{
		plans:     NewPlanStore(),
		stop:      make(chan struct{}),
		drained:   make(chan struct{}),
		campaigns: map[string]*Campaign{},
		byKey:     map[string]*Campaign{},
	}
	m.ready = sync.NewCond(&m.mu)
	for _, o := range opts {
		if err := o(m); err != nil {
			return nil, err
		}
	}
	if m.reg == nil {
		r, err := NewRegistry()
		if err != nil {
			return nil, err
		}
		m.reg = r
	}
	w := pool.Resolve(m.workers)
	m.workers = w
	m.workerWG.Add(w)
	for i := 0; i < w; i++ {
		go m.worker()
	}
	return m, nil
}

// Registry returns the manager's engine registry.
func (m *Manager) Registry() *Registry { return m.reg }

// Plans returns the manager's content-addressed plan-artifact store.
func (m *Manager) Plans() *PlanStore { return m.plans }

// Workers returns the resolved size of the shared worker pool.
func (m *Manager) Workers() int { return m.workers }

// Submit registers a campaign and returns immediately; engine resolution
// (possibly a cold Prepare), chip sampling and execution all happen
// asynchronously. Watch it with Status, Results or Wait.
//
// When spec.Key names an already-registered campaign, that campaign is
// returned instead of creating a duplicate (regardless of its state) —
// submit idempotency for clients retrying through failures. When the
// manager has a journal (WithJournal), the spec record is durably appended
// before Submit returns; a journal write failure (disk full, I/O error)
// refuses the submit rather than accepting work that could not be made
// recoverable.
func (m *Manager) Submit(spec CampaignSpec) (*Campaign, error) {
	if spec.Circuit == nil {
		return nil, fmt.Errorf("fleet: campaign needs a circuit")
	}
	if spec.Chips == nil && spec.ChipCount <= 0 {
		return nil, fmt.Errorf("fleet: campaign needs chips (explicit, or a positive ChipCount)")
	}
	if spec.Chips != nil && len(spec.Chips) == 0 {
		return nil, fmt.Errorf("fleet: campaign chip population is empty")
	}
	if spec.ChipFirst < 0 {
		return nil, fmt.Errorf("fleet: campaign chip range start must be non-negative, got %d", spec.ChipFirst)
	}
	if err := workload.Check(spec.Workload, spec.BinEdges, spec.Drift); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	// The journal's spec record is assembled outside m.mu (fingerprinting
	// hashes the whole netlist); only the durable append serializes.
	jspec, err := m.journalSpec(spec)
	if err != nil {
		return nil, err
	}
	c := m.newCampaign(spec)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		c.cancel()
		return nil, ErrManagerClosed
	}
	if spec.Key != "" {
		if prior, ok := m.byKey[spec.Key]; ok {
			m.mu.Unlock()
			c.cancel()
			return prior, nil
		}
	}
	// Admission control: bound the non-terminal backlog. Checked under m.mu
	// so concurrent submits serialize against the increment; the slot is
	// released (via noteTerminalLocked) when the campaign settles.
	if m.maxQueued > 0 && m.backlog.Load() >= int64(m.maxQueued) {
		m.rejected.Add(1)
		m.mu.Unlock()
		c.cancel()
		return nil, fmt.Errorf("%w: %d campaigns already queued or running (bound %d)",
			ErrQueueFull, m.backlog.Load(), m.maxQueued)
	}
	m.backlog.Add(1)
	m.nextID++
	c.id = fmt.Sprintf("c%06d", m.nextID)
	if m.journal != nil {
		jspec.ID = c.id
		if err := m.journal.Begin(jspec); err != nil {
			m.backlog.Add(-1)
			m.mu.Unlock()
			c.cancel()
			return nil, fmt.Errorf("fleet: journaling campaign: %w", err)
		}
		c.journaled = true
	}
	m.registerLocked(c)
	m.mu.Unlock()

	go c.prepare(spec)
	return c, nil
}

// newCampaign builds a queued, unregistered campaign for spec, with its own
// cancellable context and, for clock-binning campaigns, an empty histogram.
func (m *Manager) newCampaign(spec CampaignSpec) *Campaign {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Campaign{
		name:      spec.Name,
		key:       spec.Key,
		workload:  workload.Canonical(spec.Workload),
		m:         m,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		submitted: time.Now(),
	}
	if c.workload == workload.TypeClockBinning {
		c.bins = workload.NewBinAgg(spec.BinEdges)
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// registerLocked inserts a campaign into the manager's tables and reserves
// its prepare slot. Called with m.mu held.
func (m *Manager) registerLocked(c *Campaign) {
	m.campaigns[c.id] = c
	if c.key != "" {
		m.byKey[c.key] = c
	}
	m.order = append(m.order, c)
	m.prepWG.Add(1)
}

// CampaignByKey looks a campaign up by its idempotency key.
func (m *Manager) CampaignByKey(key string) (*Campaign, bool) {
	if key == "" {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byKey[key]
	return c, ok
}

// ManagerStats is a point-in-time snapshot of the manager's load: the
// campaign table by state plus the chip-level gauges a coordinator uses for
// least-loaded shard placement. Everything is a plain counter — cheap to
// serve on a hot /stats endpoint.
type ManagerStats struct {
	// Workers is the resolved size of the shared execution pool.
	Workers int
	// Campaign counts by lifecycle state; Campaigns is their sum.
	Campaigns          int
	CampaignsQueued    int
	CampaignsRunning   int
	CampaignsDone      int
	CampaignsCancelled int
	CampaignsFailed    int
	// ChipsExecuted counts chips run on the pool since start (including
	// chips whose campaign context was already cancelled when they ran).
	ChipsExecuted int64
	// ChipsPending counts resolved chips not yet claimed by a worker;
	// ChipsInFlight counts chips running on a worker (at most Workers).
	// Together they are the backlog a new shard would queue behind.
	ChipsPending  int
	ChipsInFlight int
	// QueueLimit is the admission bound (WithMaxQueuedCampaigns; 0 =
	// unbounded) and CampaignsRejected counts submissions it refused.
	QueueLimit        int
	CampaignsRejected int64
	// Durability counters (zero without WithJournal). CampaignsRecovered
	// counts campaigns rebuilt from the journal at boot; ChipsReplayed
	// counts chip results emitted from journal records instead of being
	// re-executed — ChipsExecuted deliberately excludes them, so
	// "executed + replayed == population" is the recovery invariant tests
	// and operators assert.
	CampaignsRecovered int64
	ChipsReplayed      int64
	// Journal footprint and health (see journal.Stats).
	JournalSegments     int
	JournalOpenSegments int
	JournalBytes        int64
	JournalAppendErrors int64
	// CampaignsByWorkload counts the campaign table by canonical workload
	// type name (package workload); values sum to Campaigns.
	CampaignsByWorkload map[string]int
	// BinHistogramBins is the total period-bin cells held across live
	// clock-binning campaigns — the memory footprint of the binning
	// aggregates, surfaced so operators see runaway edge lists.
	BinHistogramBins int
}

// Stats snapshots the manager's campaign and chip counters.
func (m *Manager) Stats() ManagerStats {
	st := ManagerStats{
		Workers:            m.workers,
		ChipsExecuted:      m.chipsExecuted.Load(),
		QueueLimit:         m.maxQueued,
		CampaignsRejected:  m.rejected.Load(),
		CampaignsRecovered: m.recovered.Load(),
		ChipsReplayed:      m.replayed.Load(),
	}
	if m.journal != nil {
		js := m.journal.Stats()
		st.JournalSegments = js.Segments
		st.JournalOpenSegments = js.OpenSegments
		st.JournalBytes = js.Bytes
		st.JournalAppendErrors = js.AppendErrors
	}
	m.mu.Lock()
	camps := slices.Clone(m.order)
	dispatched := make([]int, len(camps))
	for i, c := range camps {
		dispatched[i] = c.nextDispatch
	}
	m.mu.Unlock()
	st.CampaignsByWorkload = make(map[string]int)
	for i, c := range camps {
		c.mu.Lock()
		st.Campaigns++
		st.CampaignsByWorkload[c.workload]++
		if c.bins != nil {
			st.BinHistogramBins += len(c.bins.Counts)
		}
		switch c.state {
		case StateQueued:
			st.CampaignsQueued++
		case StateRunning:
			st.CampaignsRunning++
		case StateDone:
			st.CampaignsDone++
		case StateCancelled:
			st.CampaignsCancelled++
		case StateFailed:
			st.CampaignsFailed++
		}
		if c.results != nil && !c.state.Terminal() {
			// Count unresolved slots, not cursor arithmetic: chips replayed
			// from the journal hold results anywhere in the list, including
			// past the dispatch cursor.
			d := min(dispatched[i], len(c.results))
			for j, r := range c.results {
				switch {
				case r != nil:
				case j < d:
					st.ChipsInFlight++
				default:
					st.ChipsPending++
				}
			}
		}
		c.mu.Unlock()
	}
	return st
}

// Campaign looks a campaign up by ID.
func (m *Manager) Campaign(id string) (*Campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.campaigns[id]
	return c, ok
}

// Campaigns lists every campaign in submission order.
func (m *Manager) Campaigns() []*Campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.order)
}

// enqueue hands a prepared campaign to the worker pool.
func (m *Manager) enqueue(c *Campaign) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		c.mu.Lock()
		c.settleLocked(0, ErrManagerClosed)
		c.mu.Unlock()
		return
	}
	m.active = append(m.active, c)
	// Every idle worker may claim one of the new campaign's chips.
	m.ready.Broadcast()
	m.mu.Unlock()
}

// dropActiveLocked removes c from the round-robin set. Caller holds m.mu.
func (m *Manager) dropActiveLocked(c *Campaign) {
	for i, other := range m.active {
		if other == c {
			m.active = slices.Delete(m.active, i, i+1)
			if m.rr > i {
				m.rr--
			}
			return
		}
	}
}

// nextJobLocked picks the next (campaign, chip) pair round-robin across
// active campaigns — one chip per campaign per turn, so campaigns share the
// pool fairly regardless of size. Caller holds m.mu.
func (m *Manager) nextJobLocked() (job, bool) {
	for len(m.active) > 0 {
		if m.rr >= len(m.active) {
			m.rr = 0
		}
		c := m.active[m.rr]
		c.mu.Lock()
		n := len(c.chips)
		// Skip positions that already hold a result — chips replayed from
		// the journal occupy their slots before dispatch ever starts.
		for c.nextDispatch < len(c.results) && c.results[c.nextDispatch] != nil {
			c.nextDispatch++
		}
		c.mu.Unlock()
		if c.nextDispatch >= n {
			m.dropActiveLocked(c)
			continue
		}
		j := job{c: c, idx: c.nextDispatch}
		c.nextDispatch++
		if c.nextDispatch >= n {
			m.dropActiveLocked(c)
		} else {
			m.rr++
		}
		return j, true
	}
	return job{}, false
}

// claim blocks until a chip is ready for the calling worker and dispatches
// it, or returns false once Shutdown closed the manager. Picking and the
// closed check share m.mu, so no chip is dispatched after Shutdown has
// frozen the dispatch counters.
func (m *Manager) claim() (job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.closed {
		if j, ok := m.nextJobLocked(); ok {
			return j, true
		}
		m.ready.Wait()
	}
	return job{}, false
}

func (m *Manager) worker() {
	defer m.workerWG.Done()
	for {
		j, ok := m.claim()
		if !ok {
			return
		}
		j.c.run(j.idx)
	}
}

// Shutdown drains the manager: no new campaigns are accepted, undispatched
// chips across all campaigns resolve to ErrManagerClosed results, and the
// call blocks until the chips running on workers finish and every pool
// goroutine exits.
// If ctx expires first, the in-flight chips are hard-cancelled through
// their campaign contexts (they abort within one tester iteration) and
// Shutdown keeps waiting for the goroutines, returning the context's
// error. Shutdown is idempotent: one caller performs the drain, later and
// concurrent calls wait for it (or their own context).
//
// With a journal attached (WithJournal) the durable contract differs from
// the in-memory one: the ErrManagerClosed fills and the resulting
// cancelled states are scheduling artifacts of this process, so they are
// NOT written to the log — no settle record is appended once the drain
// has begun, and undispatched chips stay unsettled in their segments.
// In-flight chips that complete during the drain are journaled as usual.
// A campaign interrupted by Shutdown therefore recovers on the next boot
// exactly like one interrupted by a crash: completed chips replay, the
// rest re-execute. Closing the journal itself remains the caller's job,
// after Shutdown returns.
func (m *Manager) Shutdown(ctx context.Context) error {
	first := false
	m.shutdownOnce.Do(func() {
		first = true
		close(m.stop)
	})
	if !first {
		select {
		case <-m.drained:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer close(m.drained)

	m.mu.Lock()
	m.closed = true
	m.ready.Broadcast()
	actives := slices.Clone(m.order)
	m.mu.Unlock()

	// Workers claim nothing once closed is set: nextDispatch values are
	// frozen, so tag everything undispatched and cancel campaigns that never
	// got chips.
	for _, c := range actives {
		m.mu.Lock()
		start := c.nextDispatch
		c.nextDispatch = 1 << 30
		m.dropActiveLocked(c)
		m.mu.Unlock()

		c.mu.Lock()
		switch {
		case c.state.Terminal():
		case c.results == nil:
			// Still preparing: cancel the prep; failPrep settles it.
			c.mu.Unlock()
			c.cancel()
			c.mu.Lock()
			c.cond.Broadcast()
		case start < len(c.results):
			c.settleLocked(start, ErrManagerClosed)
		}
		// Fully dispatched campaigns are left to finish: their running
		// chips are exactly what the drain waits for.
		c.mu.Unlock()
	}

	done := make(chan struct{})
	go func() {
		m.workerWG.Wait()
		m.prepWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, c := range actives {
			c.cancel()
		}
		<-done
		return ctx.Err()
	}
}
