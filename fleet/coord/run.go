package coord

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"slices"
	"sort"
	"sync"

	"effitest"
	"effitest/fleet"
	"effitest/fleet/client"
	"effitest/fleet/httpapi"
	"effitest/internal/yield"
	"effitest/workload"
)

// Assignment records one shard handed to one node: population positions
// [First, First+Count) relative to the run (0-based even when the spec's
// Chips.First is non-zero). Rebalanced spans appear as additional
// assignments on surviving nodes.
type Assignment struct {
	Node  string
	First int
	Count int
}

// Summary is the final accounting of a coordinated run.
type Summary struct {
	// Chips is the number of merged results emitted (== the spec count on
	// success).
	Chips int
	// Aggregate folds every accepted error-free chip through yield.Agg's
	// exact integer sums — bit-identical to the aggregate a single daemon
	// (or in-process Engine.RunChips) would have served for the whole
	// population. A failed run's summary covers the chips accepted so far.
	Aggregate httpapi.Aggregate
	// Period is the calibrated test period, identical on every shard (a
	// mismatch fails the run: it would mean the fleet is nondeterministic).
	Period float64
	// Retries counts backoff sleeps performed across all operations.
	Retries int
	// RebalancedChips counts chips moved off dead nodes onto survivors.
	RebalancedChips int
	// Assignments lists every shard placement, including rebalanced spans,
	// in launch order.
	Assignments []Assignment
	// DeadNodes lists the URLs of nodes lost during the run, sorted.
	DeadNodes []string
}

// Run is one in-flight coordinated campaign. Consume the merged result
// stream with Results (optional) and the final accounting with Wait.
type Run struct {
	co     *Coordinator
	spec   Spec
	total  int
	base   int // global population offset (spec.Chips.First)
	planID string

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	cond        *sync.Cond
	results     []*httpapi.ChipResult // by run position; nil = pending
	accepted    int
	running     int              // live shard runners
	agg         yield.Agg        // error-free accepted chips
	bins        *workload.BinAgg // clock-binning histogram (nil otherwise)
	retries     int
	rebalanced  int
	assignments []Assignment
	deadNodes   map[string]bool
	period      float64
	periodSet   bool
	failure     error
	done        bool
}

func newRun(co *Coordinator, ctx context.Context, spec Spec) *Run {
	rctx, cancel := context.WithCancel(ctx)
	r := &Run{
		co:        co,
		spec:      spec,
		total:     spec.Chips.Count,
		base:      spec.Chips.First,
		ctx:       rctx,
		cancel:    cancel,
		results:   make([]*httpapi.ChipResult, spec.Chips.Count),
		deadNodes: map[string]bool{},
	}
	if workload.Canonical(spec.Workload) == workload.TypeClockBinning {
		r.bins = workload.NewBinAgg(spec.BinEdges)
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Total returns the population size of the run.
func (r *Run) Total() int { return r.total }

// Assignments snapshots the shard placements so far (rebalanced spans
// appear as they are launched).
func (r *Run) Assignments() []Assignment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.assignments)
}

// retry runs op, sleeping the policy's backoff between transient failures
// (client.IsTransient), up to MaxAttempts tries. A non-transient error, a
// cancelled context or success returns immediately. When the failure
// carries a Retry-After hint (a 429 from admission or rate-limit control),
// the sleep is at least that long — the daemon said exactly when capacity
// returns, so retrying at the policy's base rate would just burn attempts.
func (r *Run) retry(ctx context.Context, op func(context.Context) error) error {
	for attempt := 0; ; attempt++ {
		err := op(ctx)
		if err == nil || !client.IsTransient(err) || attempt+1 >= r.co.policy.MaxAttempts {
			return err
		}
		r.mu.Lock()
		r.retries++
		r.mu.Unlock()
		d := max(r.co.policy.Delay(attempt, r.co.jitterU()), client.RetryAfter(err))
		if serr := r.co.clock.Sleep(ctx, d); serr != nil {
			return serr
		}
	}
}

// launch records an assignment and starts its shard runner.
func (r *Run) launch(n *node, pos, count int) {
	r.mu.Lock()
	r.assignments = append(r.assignments, Assignment{Node: n.url, First: pos, Count: count})
	r.running++
	r.mu.Unlock()
	r.wg.Add(1)
	go r.runShard(n, pos, count)
}

// accept records one final result at a run position, exactly once: a
// duplicate (late stream delivery racing a rebalanced re-run) is dropped.
// Error-free results fold into the run's aggregate under the same lock, so
// the dedup and the fold are atomic.
func (r *Run) accept(pos int, res httpapi.ChipResult) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.results[pos] != nil {
		return false
	}
	res.Index = pos
	r.results[pos] = &res
	r.accepted++
	if res.Error == "" {
		r.agg.Observe(&effitest.ChipOutcome{
			Iterations: res.Iterations,
			ScanBits:   res.ScanBits,
			Configured: res.Configured,
			Passed:     res.Passed,
		})
		// Clock binning folds here, exactly once per position: the daemon
		// computed the chip's achieved period from the same chip and the
		// same configured vector the coordinator would have, so classifying
		// the wire float64 reproduces the daemon-side histogram bit for bit.
		if r.bins != nil {
			if res.Configured {
				r.bins.Observe(res.AchievedPeriod)
			} else {
				r.bins.ObserveUnbinned()
			}
		}
	}
	if r.accepted == r.total {
		r.done = true
	}
	r.cond.Broadcast()
	return true
}

// fail records the first fatal error and aborts the run.
func (r *Run) fail(err error) {
	r.mu.Lock()
	if r.failure == nil && !r.done {
		r.failure = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.cancel()
}

// observePeriod cross-checks the calibrated period across shards: every
// node must land on the identical float, or the fleet is not executing the
// deterministic flow the merge relies on.
func (r *Run) observePeriod(n *node, p float64) {
	if p == 0 {
		return
	}
	r.mu.Lock()
	if !r.periodSet {
		r.period, r.periodSet = p, true
		r.mu.Unlock()
		return
	}
	mismatch := r.period != p
	want := r.period
	r.mu.Unlock()
	if mismatch {
		r.fail(fmt.Errorf("coord: node %s calibrated period %v, other shards %v — fleet is nondeterministic", n.url, p, want))
	}
}

// shardKey derives the deterministic idempotency key one shard submits
// under: the SHA-256 of the request document itself (hashed before the
// key is set), so the same shard of the same spec always re-submits as
// the same campaign. A journalled daemon answers a duplicate key with the
// existing — possibly recovered — campaign instead of starting a second
// execution, which is what makes re-adoption after a node restart safe.
// Identical shards of identical specs across separate coordinator runs
// also collide, deliberately: the flow is deterministic, so the daemon's
// prior campaign holds the exact results a re-execution would produce.
func shardKey(req httpapi.CampaignRequest) string {
	b, _ := json.Marshal(req)
	sum := sha256.Sum256(b)
	return "coord-" + hex.EncodeToString(sum[:16])
}

// isNotFound reports whether err is the daemon answering that the
// campaign ID does not exist — the signature of a node that restarted
// without a journal (or lost the campaign's segment) while we streamed.
func isNotFound(err error) bool {
	var aerr *client.APIError
	return errors.As(err, &aerr) && aerr.StatusCode == http.StatusNotFound
}

// runShard executes one assignment: submit the shard range, stream its
// NDJSON results (resuming across transient breaks), and either finish it
// or hand its unfinished chips to nodeLost for rebalancing. A node that
// answers but has forgotten the campaign ID (it restarted) is re-adopted
// in place: the shard re-submits under its idempotency key, picking up
// the recovered campaign on a journalled daemon or starting the shard
// over on a bare one — the merge's dedup keeps every chip exactly-once
// either way.
func (r *Run) runShard(n *node, pos, count int) {
	defer func() {
		r.mu.Lock()
		r.running--
		r.cond.Broadcast()
		r.mu.Unlock()
		r.wg.Done()
	}()

	ctx := r.ctx
	req := httpapi.CampaignRequest{
		Name:     fmt.Sprintf("%s[%d+%d)", r.spec.Name, r.base+pos, count),
		Circuit:  r.spec.Circuit,
		Config:   r.spec.Config,
		Chips:    httpapi.ChipSpec{Seed: r.spec.Chips.Seed, Count: count, First: r.base + pos},
		Workload: r.spec.Workload,
		BinEdges: r.spec.BinEdges,
		Drift:    r.spec.Drift,
		PlanID:   r.planID,
	}
	req.Key = shardKey(req)
	var st httpapi.CampaignStatus
	submit := func() error {
		return r.retry(ctx, func(ctx context.Context) error {
			var e error
			st, e = n.cl.Submit(ctx, req)
			return e
		})
	}
	if err := submit(); err != nil {
		if ctx.Err() != nil {
			return
		}
		// A 4xx (other than a node-specific missing plan) means the spec
		// itself is bad — every node would reject it the same way.
		var aerr *client.APIError
		if errors.As(err, &aerr) && aerr.StatusCode < 500 && aerr.StatusCode != http.StatusNotFound && aerr.StatusCode != http.StatusTooManyRequests {
			r.fail(fmt.Errorf("coord: node %s rejected shard submit: %w", n.url, err))
			return
		}
		r.nodeLost(n, pos, count, err)
		return
	}
	id := st.ID

	// held parks per-chip *errored* results by shard-local index until the
	// campaign's terminal state is known: on a done campaign they are final
	// (the same deterministic error a single-node run would report); on a
	// cancelled one they are scheduling artifacts and the chips rerun
	// elsewhere.
	held := map[int]httpapi.ChipResult{}
	received := 0
	stall := 0

	// readopt re-submits the shard under its unchanged idempotency key
	// after the node stopped recognizing the campaign ID. Stream progress
	// resets — the adopted campaign may be a fresh execution with its own
	// result sequence — and already-accepted chips dedup in accept.
	readopt := func(cause error) bool {
		if err := submit(); err != nil {
			if ctx.Err() == nil {
				r.nodeLost(n, pos, count, fmt.Errorf("re-adopting shard after %v: %w", cause, err))
			}
			return false
		}
		id = st.ID
		received = 0
		held = map[int]httpapi.ChipResult{}
		return true
	}
	for {
		if ctx.Err() != nil {
			return
		}
		progressed := false
		var streamErr error
		for res, err := range n.cl.StreamResultsFrom(ctx, id, received) {
			if err != nil {
				streamErr = err
				break
			}
			received++
			progressed = true
			if res.Error != "" {
				held[res.Index] = res
				continue
			}
			r.accept(pos+res.Index, res)
		}
		switch {
		case streamErr == nil:
			// Clean end of stream: the campaign settled, or the daemon cut
			// the response early. A status probe tells which.
			var fin httpapi.CampaignStatus
			ferr := r.retry(ctx, func(ctx context.Context) error {
				var e error
				fin, e = n.cl.Status(ctx, id)
				return e
			})
			switch {
			case ferr == nil:
				switch fleet.State(fin.State) {
				case fleet.StateDone:
					for li, res := range held {
						r.accept(pos+li, res)
					}
					r.observePeriod(n, fin.Period)
					return
				case fleet.StateCancelled:
					// The campaign died under us (daemon draining or an
					// operator cancel): rerun whatever is unfinished elsewhere.
					r.nodeLost(n, pos, count, fmt.Errorf("coord: campaign %s on %s settled cancelled", id, n.url))
					return
				case fleet.StateFailed:
					// Campaign-level failure is spec-level (engine construction
					// or sampling): every node would fail the same way.
					r.fail(fmt.Errorf("coord: campaign %s on %s failed: %s", id, n.url, fin.Error))
					return
				}
				// Stream ended but the campaign is live: resume below.
			case ctx.Err() != nil:
				return
			case isNotFound(ferr):
				if !readopt(ferr) {
					return
				}
			default:
				r.nodeLost(n, pos, count, ferr)
				return
			}
		case ctx.Err() != nil:
			return
		case isNotFound(streamErr):
			// The node is answering but forgot the campaign: it restarted.
			// Re-adopt rather than fail — the work is recoverable.
			if !readopt(streamErr) {
				return
			}
		case !client.IsTransient(streamErr):
			r.fail(fmt.Errorf("coord: node %s result stream: %w", n.url, streamErr))
			return
		}
		if progressed {
			stall = 0
		} else {
			stall++
		}
		if stall >= r.co.policy.MaxAttempts {
			err := streamErr
			if err == nil {
				err = fmt.Errorf("stream made no progress over %d attempts", stall)
			}
			r.nodeLost(n, pos, count, err)
			return
		}
		r.mu.Lock()
		r.retries++
		r.mu.Unlock()
		d := max(r.co.policy.Delay(stall, r.co.jitterU()), client.RetryAfter(streamErr))
		if err := r.co.clock.Sleep(ctx, d); err != nil {
			return
		}
	}
}

// nodeLost marks a node dead and rebalances the assignment's unfinished
// positions onto surviving nodes. Already-accepted results stay emitted —
// the merge's dedup makes re-delivery harmless — so every chip surfaces
// exactly once no matter how its first node failed.
func (r *Run) nodeLost(n *node, pos, count int, cause error) {
	n.setDead(true)
	r.mu.Lock()
	r.deadNodes[n.url] = true
	spans := gaps(pos, count, func(p int) bool { return r.results[p] != nil })
	lost := 0
	for _, s := range spans {
		lost += s.Count
	}
	r.rebalanced += lost
	r.mu.Unlock()
	if lost == 0 {
		return
	}
	survivors := r.co.healthy()
	if len(survivors) == 0 {
		r.fail(fmt.Errorf("%w: %d chips unplaced after losing %s: %v", ErrNoHealthyNodes, lost, n.url, cause))
		return
	}
	// Spread each unfinished span across every survivor, so one node's
	// death doesn't simply double another's load.
	even := make([]float64, len(survivors))
	for i := range even {
		even[i] = 1
	}
	for _, s := range spans {
		counts := splitByWeight(s.Count, even)
		off := 0
		for i, c := range counts {
			if c > 0 {
				r.launch(survivors[i], s.First+off, c)
			}
			off += c
		}
	}
}

// finalize settles the run once every runner has exited.
func (r *Run) finalize() {
	r.wg.Wait()
	r.mu.Lock()
	if !r.done && r.failure == nil {
		if err := r.ctx.Err(); err != nil {
			r.failure = err
		} else {
			r.failure = fmt.Errorf("coord: run ended with %d/%d chips unresolved", r.total-r.accepted, r.total)
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.cancel()
}

// Results streams the merged per-chip results strictly in population
// order, blocking until each next position resolves — the exact sequence,
// and the exact per-chip numbers, a single-node campaign over the whole
// range would serve. Each result is emitted exactly once across the whole
// run, no matter how many nodes its chip visited. A fatal run failure (or
// ctx cancellation) is yielded once as the second value and ends the
// stream. Multiple consumers may attach; each sees the full stream.
func (r *Run) Results(ctx context.Context) iter.Seq2[httpapi.ChipResult, error] {
	return func(yieldFn func(httpapi.ChipResult, error) bool) {
		stop := context.AfterFunc(ctx, func() {
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		})
		defer stop()
		for i := 0; i < r.total; i++ {
			r.mu.Lock()
			for r.results[i] == nil && r.failure == nil && ctx.Err() == nil {
				r.cond.Wait()
			}
			if r.results[i] == nil {
				err := r.failure
				if cerr := ctx.Err(); cerr != nil {
					err = cerr
				}
				r.mu.Unlock()
				yieldFn(httpapi.ChipResult{}, err)
				return
			}
			res := *r.results[i]
			r.mu.Unlock()
			if !yieldFn(res, nil) {
				return
			}
		}
	}
}

// Wait blocks until the run settles — every chip merged and every shard
// runner exited, or a fatal failure — and returns the final accounting.
// Cancelling ctx abandons the wait only; the run itself keeps going.
func (r *Run) Wait(ctx context.Context) (Summary, error) {
	stop := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for !(r.done && r.running == 0) && r.failure == nil && ctx.Err() == nil {
		r.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return Summary{}, err
	}
	if r.failure != nil && !r.done {
		return r.summaryLocked(), r.failure
	}
	return r.summaryLocked(), nil
}

// summaryLocked snapshots the run accounting. Called with r.mu held. The
// aggregate's fields are exact integer sums, so its arrival-ordered fold is
// bit-identical to sequential aggregation.
func (r *Run) summaryLocked() Summary {
	st := r.agg.Stats()
	sum := Summary{
		Chips: r.accepted,
		Aggregate: httpapi.Aggregate{
			Chips:          r.agg.Chips,
			Yield:          st.Yield,
			AvgIterations:  st.AvgIterations,
			AvgScanBits:    st.AvgScanBits,
			ConfiguredFrac: st.ConfiguredFrac,
		},
		Period:          r.period,
		Retries:         r.retries,
		RebalancedChips: r.rebalanced,
		Assignments:     slices.Clone(r.assignments),
	}
	sum.Aggregate.Bins, sum.Aggregate.Unbinned = httpapi.BinsWire(r.bins)
	for url := range r.deadNodes {
		sum.DeadNodes = append(sum.DeadNodes, url)
	}
	sort.Strings(sum.DeadNodes)
	return sum
}
