package rng

import (
	"math"
	"math/rand"
	"testing"
)

// sourceOutputs is how many Uint64 outputs each comparison checks: past
// two wraps of the 607-word register, so every word has been fed back
// into at least twice.
const sourceOutputs = 1300

// checkSource compares src, freshly seeded with seed, against
// math/rand's own source output for output, then both again through
// rand.Rand's NormFloat64 and Float64.
func checkSource(t *testing.T, src *Source, seed int64) {
	t.Helper()
	src.Seed(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	for n := range sourceOutputs {
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 output %d = %#x, want %#x", seed, n, got, want)
		}
	}
	if got, want := src.Int63(), ref.Int63(); got != want {
		t.Fatalf("seed %d: Int63 = %#x, want %#x", seed, got, want)
	}
	src.Seed(seed)
	r, rr := rand.New(src), rand.New(rand.NewSource(seed))
	for n := range sourceOutputs {
		if got, want := r.NormFloat64(), rr.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, n, got, want)
		}
		if got, want := r.Float64(), rr.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, n, got, want)
		}
	}
}

// TestSourceMatchesStdlib pins Source to math/rand's seeded stream on the
// seed reduction's edge cases and on random seeds, re-seeding one Source
// throughout so a stale register word would show.
func TestSourceMatchesStdlib(t *testing.T) {
	const m = 1<<31 - 1
	edges := []int64{
		0, 1, -1, 2, m - 1, m, m + 1, -m, 2 * m, -2 * m, 3*m + 7,
		89482311, -89482311, 1 << 31, 1 << 40,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	var src Source
	for _, seed := range edges {
		checkSource(t, &src, seed)
	}
	r := rand.New(rand.NewSource(20260101))
	for range 2000 {
		checkSource(t, &src, int64(r.Uint64()))
	}
}

// FuzzSourceMatchesStdlib compares Source with math/rand's source on
// arbitrary seeds.
func FuzzSourceMatchesStdlib(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, 89482311, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSource(t, new(Source), seed)
	})
}

// BenchmarkSeed times one re-seed, the per-chip fixed cost of the
// Monte-Carlo sampler: Source's jump-ahead Seed against math/rand's
// serial one.
func BenchmarkSeed(b *testing.B) {
	b.Run("Source", func(b *testing.B) {
		var src Source
		for i := 0; b.Loop(); i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		src := rand.NewSource(0)
		for i := 0; b.Loop(); i++ {
			src.Seed(int64(i))
		}
	})
}
