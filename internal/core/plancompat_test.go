package core

import (
	"context"
	"errors"
	"os"
	"testing"
)

// v1BinaryArtifact downgrades a current binary artifact to format version 1
// (the version field is a single-byte uvarint right after the magic for all
// versions < 128).
func v1BinaryArtifact(tb testing.TB, bin []byte) []byte {
	tb.Helper()
	old := append([]byte{}, bin...)
	if old[len(planMagic)] != PlanFormatVersion {
		tb.Fatalf("artifact version byte = %d, want %d", old[len(planMagic)], PlanFormatVersion)
	}
	old[len(planMagic)] = 1
	return old
}

// TestPlanDecodeRejectsV1Artifacts pins the v1→v2 compatibility contract:
// artifacts written before the prediction-kernel bake (PR 3/4 plan caches
// and exports) are rejected with the typed ErrPlanVersion — never decoded
// into a plan with garbage kernels.
func TestPlanDecodeRejectsV1Artifacts(t *testing.T) {
	_, bin := fuzzPlanArtifacts(t)

	if _, err := DecodePlan(v1BinaryArtifact(t, bin)); !errors.Is(err, ErrPlanVersion) {
		t.Fatalf("v1 binary artifact: got %v, want ErrPlanVersion", err)
	}
	// Future versions are rejected the same way — decode never guesses.
	future := append([]byte{}, bin...)
	future[len(planMagic)] = PlanFormatVersion + 1
	if _, err := DecodePlan(future); !errors.Is(err, ErrPlanVersion) {
		t.Fatalf("future binary artifact: got %v, want ErrPlanVersion", err)
	}
}

// TestPlanCacheSelfHealsAcrossVersions proves a cache directory carrying
// stale artifacts recovers by itself: the version is part of the cache key
// (old entries are simply never looked up), and even a v1 artifact planted
// at a current key reads as a miss that the next Prepare overwrites.
func TestPlanCacheSelfHealsAcrossVersions(t *testing.T) {
	c, bin := fuzzPlanArtifacts(t)
	cfg := DefaultConfig()
	cfg.HoldSamples = 40

	dir := t.TempDir()
	pc, err := NewPlanCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := pc.Key(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pc.Path(key), v1BinaryArtifact(t, bin), 0o644); err != nil {
		t.Fatal(err)
	}
	if pl, err := pc.Get(c, cfg); err != nil || pl != nil {
		t.Fatalf("stale v1 entry should read as a miss, got plan=%v err=%v", pl, err)
	}
	pl, hit, err := PrepareCached(context.Background(), dir, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("stale entry must not count as a cache hit")
	}
	if pl.kernels == nil {
		t.Fatal("re-prepared plan has no baked kernels")
	}
	// The overwritten entry now loads, and Bind bakes its kernels.
	warm, err := pc.Get(c, cfg)
	if err != nil || warm == nil {
		t.Fatalf("self-healed entry should hit, got plan=%v err=%v", warm, err)
	}
	if warm.kernels == nil {
		t.Fatal("cache-loaded plan has no baked kernels")
	}
}
