package core

import (
	"context"
	"iter"
	"sync"

	"effitest/internal/pool"
	"effitest/internal/tester"
)

// ChipResult is one element of the stream produced by Plan.RunChips: the
// chip's position in the input, the chip itself, and either its outcome or
// its per-chip error. A failing chip does not stop the other chips — in a
// binning pipeline a per-chip failure is itself a result.
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
// Each worker claims one chip at a time and runs it through runChip, the
// executor RunChip uses too.
func (pl *Plan) RunChips(ctx context.Context, chips []*tester.Chip, Td float64, workers int, opts RunOptions) iter.Seq[ChipResult] {
	if len(chips) == 0 {
		return func(func(ChipResult) bool) {}
	}
	w := min(pool.Resolve(workers), len(chips))
	return func(yield func(ChipResult) bool) {
		runCtx, cancelRun := context.WithCancel(ctx)
		defer cancelRun()
		// abort closes when the consumer breaks (or the stream returns): it
		// unblocks any worker parked on a window slot or a result send,
		// independent of the external context.
		abort := make(chan struct{})
		defer close(abort)

		// window caps chips in flight (claimed but not yet yielded) at 3×w:
		// without it, one slow chip lets the other workers run ahead and
		// pile completed results into the reorder buffer without bound. A
		// claim takes one slot; the reorder loop releases it when the chip's
		// result is yielded.
		//
		// Chips are claimed in index order, and a claim takes its slot while
		// holding claimMu, so every slot held belongs to a chip at or below
		// the one being claimed. The lowest unyielded chip is therefore
		// always claimed and runs to completion, and its release unblocks the
		// claimer: the window cannot deadlock.
		window := make(chan struct{}, 3*w)
		var claimMu sync.Mutex
		next := 0
		// claim returns the next unclaimed chip with its window slot taken;
		// ok is false once the chips run out or the consumer broke. Under
		// cancellation claims continue, so every chip still gets its
		// (error-tagged) result and the stream length stays len(chips).
		claim := func() (i int, ok bool) {
			claimMu.Lock()
			defer claimMu.Unlock()
			if next >= len(chips) {
				return 0, false
			}
			select {
			case window <- struct{}{}:
			case <-abort:
				return 0, false
			}
			next++
			return next - 1, true
		}

		inner := make(chan ChipResult, w)
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				// One scratch per worker for its whole run: the prediction
				// workspace and alignment buffers are reused across every
				// chip this goroutine executes.
				scr := pl.getScratch()
				defer pl.putScratch(scr)
				for {
					i, ok := claim()
					if !ok {
						return
					}
					out, err := pl.runChip(runCtx, chips[i], Td, opts, scr)
					select {
					case inner <- ChipResult{Index: i, Chip: chips[i], Outcome: out, Err: err}:
					case <-abort:
						return
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
