package yield

import (
	"math/rand"
	"testing"
	"time"

	"effitest/internal/core"
)

func randOutcome(r *rand.Rand) *core.ChipOutcome {
	return &core.ChipOutcome{
		Iterations:     r.Intn(500),
		ScanBits:       int64(r.Intn(100000)),
		AlignDuration:  time.Duration(r.Intn(1e6)),
		ConfigDuration: time.Duration(r.Intn(1e6)),
		Configured:     r.Intn(4) != 0,
		Passed:         r.Intn(3) != 0,
	}
}

// Any partition of an outcome stream into shards, each shard's outcomes
// observed into one Agg as it arrives, must equal the aggregate of a single
// sequential pass — the coordinator depends on this when chips of one
// population complete on different nodes.
func TestAggShardedMergeExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	outs := make([]*core.ChipOutcome, 257)
	for i := range outs {
		outs[i] = randOutcome(r)
	}
	var whole Agg
	for _, out := range outs {
		whole.Observe(out)
	}

	for _, shards := range []int{1, 2, 3, 8, 64, len(outs)} {
		partials := make([][]*core.ChipOutcome, shards)
		for _, out := range outs {
			s := r.Intn(shards)
			partials[s] = append(partials[s], out)
		}
		var merged Agg
		for _, s := range r.Perm(shards) {
			for _, out := range partials[s] {
				merged.Observe(out)
			}
		}
		if merged != whole {
			t.Fatalf("%d shards: merged %+v != sequential %+v", shards, merged, whole)
		}
		if merged.Stats() != whole.Stats() {
			t.Fatalf("%d shards: stats diverge", shards)
		}
	}
}

// Shard arrival order must not matter: folding the shards in reverse cannot
// change a single bit of the result.
func TestAggMergeCommutes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	partials := make([][]*core.ChipOutcome, 9)
	for i := range partials {
		for j := 0; j < r.Intn(40); j++ {
			partials[i] = append(partials[i], randOutcome(r))
		}
	}
	var fwd, rev Agg
	for i := range partials {
		for _, out := range partials[i] {
			fwd.Observe(out)
		}
		for _, out := range partials[len(partials)-1-i] {
			rev.Observe(out)
		}
	}
	if fwd != rev {
		t.Fatalf("shard order changed the aggregate: %+v != %+v", fwd, rev)
	}
}

// Adversarial arrival, as the fleet coordinator produces it: the population
// is split into shards that stream concurrently, so their chips interleave
// in any order; a rebalanced retry re-delivers chips that already arrived
// (suppressed by position before they reach Observe); and some shards land
// empty (a node died before finishing a single chip). Observing the deduped
// arrivals into one Agg must equal the sequential pass bit-for-bit.
func TestAggMergeAdversarialShardArrival(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	outs := make([]*core.ChipOutcome, 193)
	for i := range outs {
		outs[i] = randOutcome(r)
	}
	var whole Agg
	for _, out := range outs {
		whole.Observe(out)
	}

	shardCounts := []int{1, 2, 3, 7, 64, len(outs)}
	for trial := 0; trial < 60; trial++ {
		// Partition positions into shards, then append duplicate "retry"
		// shards re-covering random prefixes of earlier shards, plus empty
		// shards.
		shards := shardCounts[trial%len(shardCounts)]
		assign := make([][]int, shards)
		for pos := range outs {
			s := r.Intn(shards)
			assign[s] = append(assign[s], pos)
		}
		for s := 0; s < shards; s++ {
			if len(assign[s]) > 0 && r.Intn(2) == 0 {
				dup := assign[s][:1+r.Intn(len(assign[s]))]
				assign = append(assign, append([]int(nil), dup...))
			}
			if r.Intn(3) == 0 {
				assign = append(assign, nil) // empty shard
			}
		}

		// Each step delivers the next chip of a random unfinished shard;
		// seen dedups by position before Observe — the coordinator's
		// exactly-once merge.
		var got Agg
		seen := make([]bool, len(outs))
		next := make([]int, len(assign))
		var live []int
		for s := range assign {
			if len(assign[s]) > 0 {
				live = append(live, s)
			}
		}
		for len(live) > 0 {
			k := r.Intn(len(live))
			s := live[k]
			pos := assign[s][next[s]]
			if next[s]++; next[s] == len(assign[s]) {
				live = append(live[:k], live[k+1:]...)
			}
			if seen[pos] {
				continue // duplicate suppressed after retry
			}
			seen[pos] = true
			got.Observe(outs[pos])
		}
		if got != whole {
			t.Fatalf("trial %d (%d shards): arrival-order aggregate %+v != sequential %+v", trial, shards, got, whole)
		}
		if got.Stats() != whole.Stats() {
			t.Fatalf("trial %d: stats diverge after adversarial arrival", trial)
		}
	}
}

func TestAggZeroStats(t *testing.T) {
	var a Agg
	if st := a.Stats(); st != (ProposedStats{}) {
		t.Fatalf("zero aggregate produced non-zero stats: %+v", st)
	}
}

// Agg.Stats must agree exactly with the historical inline aggregation in
// ProposedOpts (sum then divide once, in the same order).
func TestAggStatsMatchesDirectAverages(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var a Agg
	var iters int
	var scan int64
	var align, config time.Duration
	var passed, configured, n int
	for i := 0; i < 100; i++ {
		out := randOutcome(r)
		a.Observe(out)
		n++
		iters += out.Iterations
		scan += out.ScanBits
		align += out.AlignDuration
		config += out.ConfigDuration
		if out.Passed {
			passed++
		}
		if out.Configured {
			configured++
		}
	}
	want := ProposedStats{
		Yield:          float64(passed) / float64(n),
		AvgIterations:  float64(iters) / float64(n),
		AvgScanBits:    float64(scan) / float64(n),
		AvgAlignTime:   time.Duration(float64(align) / float64(n)),
		AvgConfigTime:  time.Duration(float64(config) / float64(n)),
		ConfiguredFrac: float64(configured) / float64(n),
	}
	if got := a.Stats(); got != want {
		t.Fatalf("stats %+v != direct averages %+v", got, want)
	}
}
