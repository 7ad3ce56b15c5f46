package fleet

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"effitest"
)

// Registry is a bounded LRU of live engines keyed by (circuit fingerprint,
// configuration fingerprint). Engine construction is single-flighted per
// key: however many goroutines ask for the same (circuit, configuration)
// concurrently, the expensive offline Prepare runs exactly once and every
// caller receives the same shared *effitest.Engine (engines are immutable
// and safe for concurrent use).
//
// The registry bounds live engines, not their lifetime: an evicted engine
// keeps working for whoever still holds it — eviction only drops the
// registry's reference so the least-recently-used plans can be collected.
// Pair the registry with a plan-cache directory (WithPlanCacheDir) and an
// evicted-and-reloaded engine skips Prepare by loading the on-disk
// artifact.
type Registry struct {
	capacity int
	planDir  string
	baseOpts []effitest.Option

	mu    sync.Mutex
	items map[string]*regEntry
	order *list.List // front = most recently used; element values are *regEntry

	stats RegistryStats
}

// regEntry is one registry slot. ready is closed once eng/err are set; a
// failed construction removes the entry before closing ready, so the next
// request retries instead of caching the error.
type regEntry struct {
	key   string
	ready chan struct{}
	eng   *effitest.Engine
	err   error
	elem  *list.Element
}

// RegistryStats counts registry traffic since construction.
type RegistryStats struct {
	// Hits are requests served an existing (or in-flight) engine.
	Hits int
	// Misses are requests that had to construct an engine.
	Misses int
	// Prepares counts constructions that ran the offline Prepare — a miss
	// served from the plan-cache directory loads the artifact instead and
	// does not count.
	Prepares int
	// Evictions counts engines dropped by the LRU bound.
	Evictions int
	// BuildTime is the summed wall time of the engine constructions run
	// on misses (Prepare or plan-cache load, plus period calibration),
	// failed ones included.
	BuildTime time.Duration
	// Live is the current number of registered engines (including ones
	// still under construction).
	Live int
}

// RegistryOption configures a Registry at construction time.
type RegistryOption func(*Registry)

// WithCapacity bounds the number of live engines (default 16). When a new
// engine would exceed it, the least-recently-used ready engine is evicted.
func WithCapacity(n int) RegistryOption {
	return func(r *Registry) { r.capacity = n }
}

// WithPlanCacheDir backs every engine with the content-addressed on-disk
// plan cache at dir, so a cold registry entry still skips Prepare whenever
// any process has prepared that (circuit, configuration) before.
func WithPlanCacheDir(dir string) RegistryOption {
	return func(r *Registry) { r.planDir = dir }
}

// WithEngineOptions prepends base options to every Engine call — the
// service-wide defaults a daemon applies before per-request options.
func WithEngineOptions(opts ...effitest.Option) RegistryOption {
	return func(r *Registry) { r.baseOpts = append(r.baseOpts, opts...) }
}

// NewRegistry builds an engine registry.
func NewRegistry(opts ...RegistryOption) (*Registry, error) {
	r := &Registry{
		capacity: 16,
		items:    map[string]*regEntry{},
		order:    list.New(),
	}
	for _, o := range opts {
		o(r)
	}
	if r.capacity <= 0 {
		return nil, fmt.Errorf("fleet: registry capacity must be positive, got %d", r.capacity)
	}
	return r, nil
}

// Engine returns the live engine for (c, opts), constructing it exactly
// once per key no matter how many goroutines ask concurrently. The key is
// (circuit fingerprint, options fingerprint) — see
// effitest.SummarizeOptions for what the options fingerprint covers;
// notably the worker count is excluded, so requests differing only in
// execution width share one engine.
//
// Callers must run chips manufactured from the returned engine's circuit
// instance (eng.Circuit() or eng.SampleChips), which may be a different
// pointer than c when another caller registered the same content first.
//
// Three option kinds bypass the registry and construct a caller-private
// engine instead: WithPlan (the supplied artifact, not the options,
// governs that engine), and WithBackend / WithObserver (both are baked
// into the engine, and a caller that did not ask for a fault-injecting or
// replaying transport must never inherit one from whoever registered the
// key first). Bypassing engines still load through the registry's plan
// cache directory, so they skip Prepare whenever a shared engine already
// stored the artifact.
//
// Cancelling ctx abandons the wait (and, for the constructing caller, the
// construction); a construction abandoned mid-flight surfaces its error to
// every waiter and is forgotten, so the next request retries.
func (r *Registry) Engine(ctx context.Context, c *effitest.Circuit, opts ...effitest.Option) (*effitest.Engine, error) {
	all := make([]effitest.Option, 0, len(r.baseOpts)+len(opts)+1)
	all = append(all, r.baseOpts...)
	all = append(all, opts...)
	sum := effitest.SummarizeOptions(all...)
	if r.planDir != "" && sum.PlanCacheDir == "" {
		all = append(all, effitest.WithPlanCache(r.planDir))
	}
	if sum.HasPlan || sum.HasBackend || sum.HasObserver {
		return effitest.NewCtx(ctx, c, all...)
	}
	cfp, err := c.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("fleet: fingerprinting circuit: %w", err)
	}
	key := cfp + "|" + sum.Fingerprint

	r.mu.Lock()
	for {
		e, ok := r.items[key]
		if !ok {
			break
		}
		r.stats.Hits++
		r.order.MoveToFront(e.elem)
		r.mu.Unlock()
		select {
		case <-e.ready:
			// A construction aborted by the *constructor's* cancellation
			// must not poison unrelated waiters: the failed entry was
			// forgotten, so retry under our own context instead of
			// surfacing someone else's context error.
			if e.err != nil && ctx.Err() == nil &&
				(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
				r.mu.Lock()
				continue
			}
			return e.eng, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &regEntry{key: key, ready: make(chan struct{})}
	e.elem = r.order.PushFront(e)
	r.items[key] = e
	r.stats.Misses++
	r.evictLocked()
	r.mu.Unlock()

	start := time.Now()
	eng, err := effitest.NewCtx(ctx, c, all...)
	r.mu.Lock()
	r.stats.BuildTime += time.Since(start)
	if err != nil {
		// Forget the failed entry so the next request retries; waiters
		// already holding e still see the error through ready.
		if cur, ok := r.items[key]; ok && cur == e {
			r.order.Remove(e.elem)
			delete(r.items, key)
		}
	} else if !eng.PlanCacheHit() {
		r.stats.Prepares++
	}
	e.eng, e.err = eng, err
	r.mu.Unlock()
	close(e.ready)
	return eng, err
}

// evictLocked drops least-recently-used ready engines until the capacity
// bound holds. Entries still under construction are never evicted — their
// waiters hold them — so the registry can transiently exceed capacity by
// the number of in-flight constructions.
func (r *Registry) evictLocked() {
	for el := r.order.Back(); el != nil && len(r.items) > r.capacity; {
		prev := el.Prev()
		e := el.Value.(*regEntry)
		select {
		case <-e.ready:
			r.order.Remove(el)
			delete(r.items, e.key)
			r.stats.Evictions++
		default:
			// still preparing; skip
		}
		el = prev
	}
}

// Stats returns a snapshot of the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Live = len(r.items)
	return st
}
