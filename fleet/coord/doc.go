// Package coord is the sharded fleet coordinator: it executes one logical
// chip campaign across N effitestd daemons and merges the shards back into
// the exact results a single node would have produced.
//
// The pipeline, per run:
//
//	probe    every node's /healthz (reviving recovered nodes)
//	push     the plan artifact to each node, dedup'd by content address
//	place    shards by load — /stats backlog over worker count
//	stream   each shard's NDJSON results concurrently, resuming across
//	         transient breaks via ?from=
//	merge    into one in-order iter.Seq with exactly-once emission
//	fold     each accepted chip into one yield.Agg of exact integer sums
//
// Determinism is the load-bearing property. Chip i of a (seed-keyed)
// population depends only on (seed, i), and the engine's flow is
// deterministic per chip, so a shard that runs chips [first, first+count)
// on any node produces bit-identical per-chip numbers to the same
// positions of a whole-population run. That is what makes failure handling
// safe: a dead node's unfinished chips are simply re-submitted to
// survivors, duplicates are suppressed at the merge (first result for a
// position wins — all candidates are bitwise equal), and the merged
// aggregate still matches single-node execution exactly.
//
// Failure model. Transient failures (HTTP 5xx/429, connection
// refused/reset, timeouts, streams cut mid-body — see
// fleet/client.IsTransient) are retried with exponential backoff and
// jitter; the sleep source is an injectable Clock so retry tests run in
// milliseconds. A node that exhausts its attempts is declared dead and its
// unfinished positions rebalance across every survivor; when no survivors
// remain the run fails with ErrNoHealthyNodes. Permanent errors (4xx) fail
// fast: a rejected spec stays rejected on every node.
//
//	co, _ := coord.New([]string{"http://n1:8087", "http://n2:8087"})
//	run, err := co.Start(ctx, coord.Spec{
//		Name:    "lot-42",
//		Circuit: httpapi.CircuitSpec{Profile: "s9234", GenSeed: 1},
//		Config:  httpapi.ConfigSpec{Align: "heuristic", Quantile: 0.8413, CalibChips: 2000},
//		Chips:   httpapi.ChipSpec{Seed: 7, Count: 10000},
//	})
//	for res, err := range run.Results(ctx) { ... }
//	sum, err := run.Wait(ctx)   // sum.Aggregate == single-node aggregate, exactly
//
// cmd/effitest-coord wraps this package for the command line.
package coord
