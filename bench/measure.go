package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // measure at least this long, past the fixed lots
	lots    int     // fixed lots per run; 0 = the workload's own
	reps    int     // fresh set-up builds timed for setup_s, at least
	// setupFloor keeps timing set-up builds (up to maxSetups) until this
	// much time went into them, so the median of fast builds spans more
	// than one swing in machine speed.
	setupFloor time.Duration
	dir        string // temp directory for journals
}

// maxSetups caps the set-up builds one run times.
const maxSetups = 100

func (rc runConfig) fixedLots(w *workload) int {
	if rc.lots > 0 {
		return rc.lots
	}
	return w.lots
}

// pass is the outcome of one measured pass over a workload.
type pass struct {
	lotMs   []float64 // every measured lot's latency
	chips   int       // chips in every measured lot
	lots    int
	wall    time.Duration
	failed  int // failed chips + failed lots
	errs    []string
	alloc   uint64    // bytes allocated during the pass
	heapMB  []float64 // heap in use at every fixed lot's end, MiB
	window  int       // fixed lots completed (all of them unless a lot failed)
	iters   int       // tester iterations over the fixed lots' chips
	passed  int       // chips passing the final test, over the fixed lots
	wchips  int       // chips in the fixed lots
	digests [][32]byte
	// checks holds the service output of every checkEvery-th lot, for the
	// comparison against an in-process Engine after the pass.
	checks map[int][]chipRec
}

// memSample reads cumulative heap allocation and heap-in-use (objects plus
// the unused tails of in-use spans, i.e. MemStats.HeapInuse) without
// stopping the world.
func memSample() (alloc, inuse uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64() + s[2].Value.Uint64()
}

// measure runs closed-loop callers against srv: each caller takes the next
// lot, waits for its result, and only then takes another. Lots are handed
// out until the fixed ones are done and at least rc.seconds have passed.
func measure(ctx context.Context, w *workload, rc runConfig, srv server, tr *recorder) *pass {
	fixed := rc.fixedLots(w)
	p := &pass{digests: make([][32]byte, fixed), checks: map[int][]chipRec{}}
	done := make([]bool, fixed)
	var mu sync.Mutex
	var next atomic.Int64
	runtime.GC()
	alloc0, _ := memSample()
	start := time.Now()
	floor := time.Duration(rc.seconds * float64(time.Second))
	callers := min(w.callers, par())
	var wg sync.WaitGroup
	wg.Add(callers)
	for range callers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= fixed && time.Since(start) >= floor {
					return
				}
				r := lotRun{i: i, req: w.request(rc.seed, i), tr: tr, span: tr.lotSpan(i)}
				recs, lat, err := srv.lot(ctx, r)
				_, inuse := memSample()
				mu.Lock()
				p.lots++
				p.chips += r.req.Chips.Count
				p.lotMs = append(p.lotMs, float64(lat)/float64(time.Millisecond))
				for _, rec := range recs {
					if rec.Err != "" {
						p.failed++
					}
				}
				if err != nil {
					p.failed++
					p.errs = append(p.errs, fmt.Sprintf("lot %d: %v", i, err))
				} else {
					if i < fixed {
						// The daemon keeps every finished campaign, so its heap
						// grows with lots run: sampling only the fixed lots
						// keeps the extra lots a fast machine fits in out of
						// the heap metric.
						p.heapMB = append(p.heapMB, float64(inuse)/(1<<20))
						done[i] = true
						p.digests[i] = lotDigest(recs)
						for _, rec := range recs {
							p.iters += rec.Iterations
							p.wchips++
							if rec.Passed {
								p.passed++
							}
						}
					}
					if i%checkEvery == 0 {
						p.checks[i] = recs
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	alloc1, _ := memSample()
	p.alloc = alloc1 - alloc0
	for _, ok := range done {
		if ok {
			p.window++
		}
	}
	return p
}

// timedSetup builds the serving state rc.reps times or more (see
// setupFloor), timing each build, and keeps the last one.
func timedSetup(ctx context.Context, w *workload, rc runConfig, hk hooks) (server, []float64, error) {
	var secs []float64
	var srv server
	var spent time.Duration
	for k := 0; k < max(1, rc.reps) || (spent < rc.setupFloor && k < maxSetups); k++ {
		if srv != nil {
			srv.close()
		}
		start := time.Now()
		s, err := buildServer(ctx, w, rc.seed, rc.dir, hk)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		d := time.Since(start)
		spent += d
		secs = append(secs, d.Seconds())
		srv = s
	}
	return srv, secs, nil
}
