package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"effitest/internal/circuit"
)

// PlanCache is a content-addressed on-disk cache of prepared plans, keyed
// by (circuit fingerprint, configuration fingerprint, plan format version).
// The offline Prepare — path selection, batching, hold bounds — is the
// expensive, tester-free stage of the flow; with a shared cache directory
// it runs once per (circuit, config) fleet-wide and every other process
// loads the artifact in milliseconds.
//
// Entries are immutable: a key fully determines the plan bytes, so
// concurrent writers racing on the same key write identical content and
// atomic rename makes the race harmless. A corrupt or version-skewed entry
// reads as a miss and is overwritten by the next Put.
type PlanCache struct {
	dir string
}

// NewPlanCache opens (creating if needed) a plan cache rooted at dir.
func NewPlanCache(dir string) (*PlanCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: plan cache directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: plan cache: %w", err)
	}
	return &PlanCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (pc *PlanCache) Dir() string { return pc.dir }

// ConfigFingerprint hashes every Prepare-relevant configuration field.
// Workers is deliberately excluded: it only shapes online parallelism,
// never the plan, so fleets running the same flow at different widths
// share cache entries.
func ConfigFingerprint(cfg Config) string {
	h := sha256.New()
	key := cfg
	key.Workers = 0
	// %#v prints field names too, so reordering or renaming Config fields
	// changes the fingerprint — exactly the conservative behaviour a cache
	// key wants.
	fmt.Fprintf(h, "%#v", key)
	return hex.EncodeToString(h.Sum(nil))
}

// Key returns the cache key for (circuit, config): a hex SHA-256 digest.
func (pc *PlanCache) Key(c *circuit.Circuit, cfg Config) (string, error) {
	cfp, err := c.Fingerprint()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "effitest-plan|v%d|circuit:%s|config:%s", PlanFormatVersion, cfp, ConfigFingerprint(cfg))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Path returns the on-disk location of a cache key.
func (pc *PlanCache) Path(key string) string {
	return filepath.Join(pc.dir, key+".effiplan")
}

// Get looks up the plan for (circuit, config) and returns it bound to c and
// ready to run, or (nil, nil) on a miss. Corrupt, truncated or
// version-skewed entries are treated as misses — the cache self-heals on
// the next Put. The caller's config must be valid (Validate), because the
// returned plan adopts it wholesale: the key covers every field except
// Workers, and online parallelism should follow the live request, not
// whatever width the writing process used.
func (pc *PlanCache) Get(c *circuit.Circuit, cfg Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key, err := pc.Key(c, cfg)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(pc.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: plan cache: %w", err)
	}
	pl, err := DecodePlan(data)
	if err != nil {
		return nil, nil // corrupt entry: miss, Put will overwrite
	}
	// Adopt the live request's config before binding: the cache key pins
	// every field except Workers, and Bind's kernel bake should fan out at
	// the caller's width, not the writing process's. A Bind failure —
	// including a failed bake — reads as a miss.
	pl.Cfg = cfg
	if err := pl.Bind(c); err != nil {
		return nil, nil // stale or tampered entry: miss
	}
	return pl, nil
}

// PrepareCached is PrepareCtx through a plan cache rooted at dir: a warm
// hit loads the artifact and skips the offline flow entirely; a miss
// prepares and stores it for every later process. The returned flag
// reports whether Prepare was skipped.
func PrepareCached(ctx context.Context, dir string, c *circuit.Circuit, cfg Config) (*Plan, bool, error) {
	pc, err := NewPlanCache(dir)
	if err != nil {
		return nil, false, err
	}
	if pl, err := pc.Get(c, cfg); err != nil {
		return nil, false, err
	} else if pl != nil {
		return pl, true, nil
	}
	pl, err := PrepareCtx(ctx, c, cfg)
	if err != nil {
		return nil, false, err
	}
	if err := pc.Put(pl); err != nil {
		return nil, false, fmt.Errorf("core: storing plan in cache: %w", err)
	}
	return pl, false, nil
}

// Put stores the plan under its (circuit, config) key, atomically.
func (pc *PlanCache) Put(pl *Plan) error {
	if pl.Circuit == nil {
		return fmt.Errorf("core: plan cache: cannot store an unbound plan")
	}
	key, err := pc.Key(pl.Circuit, pl.Cfg)
	if err != nil {
		return err
	}
	data, err := pl.MarshalBinary()
	if err != nil {
		return err
	}
	return writeFileAtomic(pc.Path(key), data)
}
