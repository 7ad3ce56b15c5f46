// Package fleet turns the per-process EffiTest engine into a long-running,
// multi-circuit service layer: the architecture that amortizes the paper's
// expensive offline statistics (path selection, conditional-Gaussian
// models, test batching) across production-scale chip fleets.
//
// Two pieces compose it:
//
//   - Registry: a bounded LRU of live engines keyed by (circuit
//     fingerprint, configuration fingerprint), single-flighted so N
//     concurrent requests for the same circuit run the expensive offline
//     Prepare exactly once — in process via a per-key wait, and across
//     processes via the content-addressed plan cache the registry can sit
//     on (WithPlanCacheDir).
//
//   - Manager: asynchronous test campaigns. Submit names a batch of chips
//     and returns immediately; the campaign resolves its engine through the
//     registry, then its chips run on one shared bounded worker pool with
//     per-campaign round-robin fair scheduling, so a huge campaign cannot
//     starve a small one. A worker samples each chip when it takes it, so
//     a campaign never holds its population: at most one sampled chip per
//     worker is alive, whatever the chip count. Campaigns are observable while they run (Status:
//     queued/running/done, chips completed, running yield), streamable
//     (Results yields every per-chip result in input order, exactly as
//     Engine.RunChips would have, minus the chip), cancellable, and
//     aggregate their outcomes through the exact-sum streaming aggregator
//     in internal/yield — so any completion order folds bit-identically to
//     a sequential pass. A settled campaign keeps its results and
//     aggregates but drops its engine.
//
// cmd/effitestd exposes a Manager over HTTP/JSON (see fleet/httpapi and
// the fleet/client package); in-process callers use the Manager directly:
//
//	m, _ := fleet.NewManager(fleet.WithWorkers(8))
//	defer m.Shutdown(context.Background())
//	c, _ := effitest.Generate(profile, 1)
//	camp, _ := m.Submit(fleet.CampaignSpec{
//		Name:      "lot-42",
//		Circuit:   c,
//		Options:   []effitest.Option{effitest.WithEpsilon(0.002)},
//		ChipSeed:  7,
//		ChipCount: 1000,
//	})
//	for res := range camp.Results(ctx) {
//		...
//	}
//	st, _ := camp.Wait(ctx)
package fleet
