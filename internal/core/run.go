package core

import (
	"context"
	"iter"
	"slices"
	"sync"

	"effitest/internal/pool"
	"effitest/internal/tester"
)

// ChipResult is one element of the streams produced by Plan.RunChips and
// Plan.Stream: the chip's position in the input, the chip itself, and
// either its outcome or its per-chip error. A failing chip does not stop
// the other chips — in a binning pipeline a per-chip failure is itself a
// result.
type ChipResult struct {
	Index   int
	Chip    *tester.Chip
	Outcome *ChipOutcome
	Err     error
}

// RunChips executes the online flow on every chip at period Td, fanning the
// chips across a bounded worker pool (`workers` as in Config.Workers: 0 =
// all CPUs, 1 = sequential) and streaming one ChipResult per chip, strictly
// in input order. opts selects the measurement backend and the event
// observer (which must then be safe for concurrent use). Outcomes are
// bit-identical to a sequential loop of RunChip calls at any worker count:
// chips never share mutable state, and a reorder buffer restores input
// order.
//
// The returned sequence is single-use. Breaking out of the range stops the
// remaining chips and releases every worker — no cancellation needed for
// early exit. Cancelling the context aborts in-flight chips promptly; the
// remaining results still arrive, carrying the context's error, so the
// stream always yields exactly len(chips) results unless the consumer
// breaks first.
//
// RunChips is a slice adapter over the streaming core (see Stream). Each
// worker claims up to batchWidth consecutive chips at a time, so their
// §3.4 prediction runs as one multi-RHS kernel call per correlation group.
func (pl *Plan) RunChips(ctx context.Context, chips []*tester.Chip, Td float64, workers int, opts RunOptions) iter.Seq[ChipResult] {
	if len(chips) == 0 {
		return func(func(ChipResult) bool) {}
	}
	w := min(pool.Resolve(workers), len(chips))
	// drainAll: a slice's population is already materialized, so under
	// cancellation every chip still gets its (error-tagged) result and the
	// stream length stays len(chips).
	return pl.stream(ctx, slices.Values(chips), Td, w, batchWidth(len(chips), w), opts, true)
}

// Stream executes the online flow over an unbounded chip source: chips are
// pulled from the sequence on demand, fanned across the worker pool, and
// their results streamed in input order — the population is never
// materialized, so a generator can feed millions of chips through a hard
// fixed-memory window of 3×workers in-flight chips (one slow chip cannot
// let the rest of the pool run ahead of the consumer unboundedly).
//
// Semantics differ from RunChips in one deliberate way: cancelling the
// context stops pulling from the source (an unbounded source can never be
// drained), so the stream ends — promptly even when the source itself is
// blocked mid-pull — after the chips already being executed finish;
// chips queued but not yet picked up by a worker are dropped. Breaking out
// of the range likewise stops the source and releases the workers.
//
// Stream runs chip by chip (batch width 1): a batch only dispatches once
// full, and a stalling generator would strand a partial batch for as long
// as it stalls.
func (pl *Plan) Stream(ctx context.Context, chips iter.Seq[*tester.Chip], Td float64, workers int, opts RunOptions) iter.Seq[ChipResult] {
	return pl.stream(ctx, chips, Td, pool.Resolve(workers), 1, opts, false)
}

// defaultBatchWidth caps RunChips' chips per job: wide enough that a
// group's Cholesky factor amortizes over several chips, narrow enough that
// batching adds at most a few chips of latency before a result can stream
// out.
const defaultBatchWidth = 8

// batchWidth is RunChips' chips-per-job count for a population of n chips
// on w workers: defaultBatchWidth, capped at an even per-worker share so a
// small fleet still spreads across every worker.
func batchWidth(n, w int) int {
	return max(1, min(defaultBatchWidth, (n+w-1)/w))
}

// stream is the shared fan-out core: one producer goroutine pulls chips
// from src and hands jobs of up to kb consecutive chips to w workers, each
// job one runChipBatch call; a reorder buffer re-establishes input order on
// the way out. The width kb only fuses the §3.4 kernel calls — per-chip
// results and order are identical at any width. drainAll selects the
// cancellation contract: true keeps producing after ctx cancellation (slice
// semantics — every chip gets a result), false stops the producer
// (unbounded-source semantics).
func (pl *Plan) stream(ctx context.Context, src iter.Seq[*tester.Chip], Td float64, w, kb int, opts RunOptions, drainAll bool) iter.Seq[ChipResult] {
	return func(yield func(ChipResult) bool) {
		runCtx, cancelRun := context.WithCancel(ctx)
		defer cancelRun()
		// abort closes when the consumer breaks (or the stream returns):
		// it unblocks the producer and any worker parked on a channel send,
		// independent of the external context.
		abort := make(chan struct{})
		var abortOnce sync.Once
		closeAbort := func() { abortOnce.Do(func() { close(abort) }) }
		defer closeAbort()

		type job struct {
			first int
			chips []*tester.Chip
		}
		jobs := make(chan job, w)
		// window caps chips in flight (pulled from the source but not yet
		// yielded) at 3×w×kb, making the documented fixed-memory window a
		// hard guarantee: without it, one slow chip lets the other workers
		// run ahead and pile completed results into the reorder buffer
		// without bound. The producer acquires a slot per chip pulled; the
		// reorder loop releases it when the chip's result is yielded. Scaling
		// by kb keeps the producer able to fill w whole batches ahead — a
		// batch never needs more slots than the window holds, so batching
		// cannot deadlock the producer.
		window := make(chan struct{}, 3*w*kb)
		go func() {
			defer close(jobs)
			i := 0
			var batch []*tester.Chip
			// flush hands the accumulated batch to a worker; false = torn
			// down, stop producing.
			flush := func() bool {
				if len(batch) == 0 {
					return true
				}
				j := job{first: i - len(batch), chips: batch}
				batch = nil
				if drainAll {
					select {
					case jobs <- j:
					case <-abort:
						return false
					}
				} else {
					select {
					case jobs <- j:
					case <-abort:
						return false
					case <-runCtx.Done():
						return false
					}
				}
				return true
			}
			for ch := range src {
				if drainAll {
					select {
					case window <- struct{}{}:
					case <-abort:
						return
					}
				} else {
					if runCtx.Err() != nil {
						return
					}
					select {
					case window <- struct{}{}:
					case <-abort:
						return
					case <-runCtx.Done():
						return
					}
				}
				if batch == nil {
					batch = make([]*tester.Chip, 0, kb)
				}
				batch = append(batch, ch)
				i++
				if len(batch) >= kb && !flush() {
					return
				}
			}
			flush()
		}()

		inner := make(chan ChipResult, w)
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				// One scratch per worker for its whole chip stream: the
				// prediction workspace and alignment buffers are reused
				// across every chip this goroutine executes.
				scr := pl.getScratch()
				defer pl.putScratch(scr)
				for {
					var j job
					var ok bool
					if drainAll {
						// Slice semantics: every chip gets a result, so
						// keep claiming even after cancellation (claims
						// resolve instantly to error-tagged results).
						j, ok = <-jobs
					} else {
						// Unbounded-source semantics: the producer may be
						// parked inside a blocking source pull that
						// cancellation cannot interrupt, so a worker
						// waiting for it must also watch the context —
						// otherwise a cancelled stream over a stalled
						// source would hang instead of ending.
						select {
						case j, ok = <-jobs:
						case <-runCtx.Done():
							return
						case <-abort:
							return
						}
					}
					if !ok {
						return
					}
					for _, r := range pl.runChipBatch(runCtx, j.first, j.chips, Td, opts, scr) {
						select {
						case inner <- r:
						case <-abort:
							return
						}
					}
				}
			}()
		}
		go func() {
			wg.Wait()
			close(inner)
		}()

		// Reorder buffer: workers finish out of order, the stream is
		// emitted in index order. Claims are contiguous from 0, so the
		// buffer never holds more than the in-flight window.
		pending := make(map[int]ChipResult, w)
		sendNext := 0
		for r := range inner {
			pending[r.Index] = r
			for {
				q, ok := pending[sendNext]
				if !ok {
					break
				}
				delete(pending, sendNext)
				sendNext++
				if !yield(q) {
					return
				}
				// Free the yielded chip's window slot; every result holds
				// exactly one, so this never blocks.
				<-window
			}
		}
	}
}

// RunChipsAll runs RunChips and collects every outcome, returning the
// lowest-index per-chip error (exactly what a sequential loop would have
// hit first) if any chip failed. The outcome slice is parallel to chips.
func (pl *Plan) RunChipsAll(ctx context.Context, chips []*tester.Chip, Td float64, workers int, opts RunOptions) ([]*ChipOutcome, error) {
	outs := make([]*ChipOutcome, len(chips))
	for r := range pl.RunChips(ctx, chips, Td, workers, opts) {
		if r.Err != nil {
			// Results stream in index order, so the first error seen is the
			// lowest-index one; breaking stops the remaining chips.
			return nil, r.Err
		}
		outs[r.Index] = r.Outcome
	}
	return outs, nil
}
