package circuit

import (
	"fmt"
	"math"

	"effitest/internal/rng"
	"effitest/internal/skew"
	"effitest/internal/ssta"
	"effitest/internal/variation"
)

// GenConfig tunes the benchmark generator. The zero value is not valid; use
// DefaultGenConfig.
type GenConfig struct {
	Variation variation.Config

	// PathNominal is the target nominal path delay in ns; individual paths
	// draw from PathNominal·U[1-PathSpread/2, 1+PathSpread/2].
	PathNominal float64
	PathSpread  float64

	// MaxGatesPerPath caps the statistical gate chain of a path; the actual
	// chain length is also limited by the gate budget (0.8·ng/np).
	MaxGatesPerPath int

	// CrossClusterFrac is the fraction of paths connecting two different
	// buffered clusters.
	CrossClusterFrac float64
	// IntraClusterFrac is the fraction of paths connecting two buffers of
	// the same cluster (the chains of the paper's Figure 5).
	IntraClusterFrac float64
	// BuffersPerCluster groups this many tuning buffers into one physical
	// cluster (Figure 5 shows clusters containing several buffered FFs).
	BuffersPerCluster int

	// ClusterJitter is the cell radius over which a cluster's gates spread;
	// ClusterTightness is the probability that a gate lands exactly on the
	// anchor cell (physical proximity drives the §3.1 correlations).
	ClusterJitter    int
	ClusterTightness float64

	// MinScaleLo/Hi bound the uniform draw of the short-path (min-delay)
	// scale factor relative to the max delay.
	MinScaleLo, MinScaleHi float64

	// ExclusiveFrac controls how many ATPG logic-masking pairs are emitted:
	// ExclusiveFrac·np pairs.
	ExclusiveFrac float64

	// SetupTime and HoldTime are folded into path bounds (ns).
	SetupTime, HoldTime float64

	// BufferRangeDiv sets the buffer range: τ = TNominal / BufferRangeDiv
	// (the paper uses 8); BufferSteps is the lattice resolution (paper: 20),
	// at least 1.
	BufferRangeDiv float64
	BufferSteps    int
}

// DefaultGenConfig returns the paper-calibrated generator configuration.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Variation:         variation.DefaultConfig(),
		PathNominal:       1.0,
		PathSpread:        0.18,
		MaxGatesPerPath:   10,
		CrossClusterFrac:  0.05,
		IntraClusterFrac:  0.10,
		BuffersPerCluster: 3,
		ClusterJitter:     1,
		ClusterTightness:  1.0,
		MinScaleLo:        0.30,
		MinScaleHi:        0.45,
		ExclusiveFrac:     0.02,
		SetupTime:         0.02,
		HoldTime:          0.02,
		BufferRangeDiv:    8,
		BufferSteps:       20,
	}
}

// Generate builds a deterministic benchmark circuit for the profile and
// seed using the default generator configuration.
func Generate(p Profile, seed int64) (*Circuit, error) {
	return GenerateWith(p, seed, DefaultGenConfig())
}

// GenerateWith builds a deterministic benchmark circuit.
//
// Structure: each tuning buffer anchors a physical cluster (a cell on the
// variation grid). Paths attach to their cluster's buffered FF — converging
// (sink buffered), leaving (source buffered), or crossing to another
// cluster's buffer — with chain lengths set by the profile's gate budget.
// Gates of a cluster land within ClusterJitter cells of the anchor, giving
// the high intra-cluster delay correlation the paper's §3.1 relies on.
// Remaining gates become non-critical filler so ng matches the profile.
func GenerateWith(p Profile, seed int64, cfg GenConfig) (*Circuit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	model, err := variation.New(cfg.Variation)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed, "circuit", p.Name)

	nb, ns, np, ng := p.NumBuffers, p.NumFF, p.NumPaths, p.NumGates

	// Buffered FFs: spread through the id space for realism.
	buffered := make([]int, nb)
	for i := range buffered {
		buffered[i] = i * (ns / nb)
	}
	isBuf := make([]bool, ns)
	for _, b := range buffered {
		isBuf[b] = true
	}

	// Group buffers into physical clusters (Figure 5: a cluster hosts
	// several buffered FFs whose paths chain through each other).
	bpc := cfg.BuffersPerCluster
	if bpc < 1 {
		bpc = 1
	}
	nc := (nb + bpc - 1) / bpc
	clusterBufs := make([][]int, nc)
	for i, b := range buffered {
		clusterBufs[i%nc] = append(clusterBufs[i%nc], b)
	}

	// Cluster anchors on the variation grid, spaced on a coarse lattice so
	// different clusters decorrelate. Each cluster is a pipeline: its
	// buffers sit at the boundaries of a chain of adjacent grid regions
	// (R_0 → b_0 → R_1 → b_1 → ...), so the logic feeding a buffer and the
	// logic it launches into see *different* regional variation — the
	// imbalance post-silicon tuning exists to fix.
	gw, gh := cfg.Variation.GridW, cfg.Variation.GridH
	side := int(math.Ceil(math.Sqrt(float64(nc))))
	regionX := make([][]int, nc) // per cluster: bpc+1 region cells
	regionY := make([][]int, nc)
	for c := 0; c < nc; c++ {
		ax := clampInt((c%side)*gw/side+r.Intn(2), 0, gw-1)
		ay := clampInt((c/side)*gh/side+r.Intn(2), 0, gh-1)
		nRegions := len(clusterBufs[c]) + 1
		regionX[c] = make([]int, nRegions)
		regionY[c] = make([]int, nRegions)
		for j := 0; j < nRegions; j++ {
			// Walk right, wrapping down a row at the grid edge.
			x := ax + j
			y := ay
			for x >= gw {
				x -= gw
				y = clampInt(y+1, 0, gh-1)
			}
			regionX[c][j] = x
			regionY[c][j] = y
		}
	}

	// Unbuffered FF pools per cluster (round-robin partition).
	pools := make([][]int, nc)
	ci := 0
	for ff := 0; ff < ns; ff++ {
		if isBuf[ff] {
			continue
		}
		pools[ci%nc] = append(pools[ci%nc], ff)
		ci++
	}
	poolNext := make([]int, nc)
	nextEndpoint := func(c int) int {
		pool := pools[c]
		if len(pool) == 0 {
			// Degenerate: no unbuffered FF in the pool; fall back to any
			// other FF.
			return (clusterBufs[c][0] + 1) % ns
		}
		ff := pool[poolNext[c]%len(pool)]
		poolNext[c]++
		return ff
	}
	// Gate chain length budget: keep ~10% of gates as filler. Longer chains
	// average out per-gate randomness, which is what gives physically
	// clustered paths their high mutual correlation.
	chainLen := int(math.Floor(0.9 * float64(ng) / float64(np)))
	if chainLen < 2 {
		chainLen = 2
	}
	if chainLen > cfg.MaxGatesPerPath {
		chainLen = cfg.MaxGatesPerPath
	}

	c := &Circuit{
		Name:      p.Name,
		NumFF:     ns,
		Buffered:  buffered,
		SetupTime: cfg.SetupTime,
		HoldTime:  cfg.HoldTime,
		Model:     model,
	}
	c.memo = &memo{owner: c}

	gateBudget := ng
	// newGate places a gate in the given region cell, with optional jitter.
	newGate := func(cellX, cellY int, nominal float64) int {
		id := len(c.Gates)
		x, y := cellX, cellY
		if r.Float64() >= cfg.ClusterTightness {
			x = clampInt(x+r.Intn(2*cfg.ClusterJitter+1)-cfg.ClusterJitter, 0, gw-1)
			y = clampInt(y+r.Intn(2*cfg.ClusterJitter+1)-cfg.ClusterJitter, 0, gh-1)
		}
		c.Gates = append(c.Gates, Gate{ID: id, CellX: x, CellY: y, Nominal: nominal})
		gateBudget--
		return id
	}

	for i := 0; i < np; i++ {
		cluster := i % nc
		bs := clusterBufs[cluster]
		// Path kind: converge / leave / intra-cluster buffer chain /
		// cross-cluster. Each path's gates live in the region(s) its
		// endpoints border.
		var from, to int
		// regions lists (cluster, regionIndex) pairs the gate chain spans.
		type regRef struct{ c, j int }
		var regions []regRef
		kind := r.Float64()
		switch {
		case nc > 1 && kind < cfg.CrossClusterFrac:
			// Cross paths connect adjacent clusters only: physically a
			// cluster talks to its neighbours, and this keeps the number of
			// distinct weakly-correlated path families linear in the number
			// of clusters.
			other := (cluster + 1) % nc
			from = bs[len(bs)-1]
			to = clusterBufs[other][0]
			regions = []regRef{{cluster, len(bs)}, {other, 0}}
		case len(bs) > 1 && kind < cfg.CrossClusterFrac+cfg.IntraClusterFrac:
			// Directed chain segment b_a -> b_{a+1}: acyclic like the
			// paper's 1→4→6→7, so tuning can tilt skew along the chain
			// without closing a tight timing loop. Its logic sits in the
			// region between the two buffers.
			a := r.Intn(len(bs) - 1)
			from, to = bs[a], bs[a+1]
			regions = []regRef{{cluster, a + 1}}
		case i%2 == 0:
			// Converging path: upstream logic feeds buffer b_j from the
			// region before it.
			j := r.Intn(len(bs))
			from, to = nextEndpoint(cluster), bs[j]
			regions = []regRef{{cluster, j}}
		default:
			// Leaving path: buffer b_j launches into the region after it.
			j := r.Intn(len(bs))
			from, to = bs[j], nextEndpoint(cluster)
			regions = []regRef{{cluster, j + 1}}
		}
		if from == to { // collision safeguard
			to = nextEndpoint(cluster)
			if from == to {
				to = (from + 1) % ns
			}
		}
		cellFor := func(k, L int) (int, int) {
			// Spread the chain over its regions: first half in the first
			// region, second half in the last (single-region paths are
			// unaffected).
			rr := regions[0]
			if len(regions) > 1 && k >= L/2 {
				rr = regions[1]
			}
			return regionX[rr.c][rr.j], regionY[rr.c][rr.j]
		}

		L := chainLen
		if L > 2 && r.Float64() < 0.5 {
			L += r.Intn(3) - 1
		}
		// Never exceed the remaining budget (reserve 1 gate per remaining
		// path).
		remainingPaths := np - i - 1
		if maxL := gateBudget - 2*remainingPaths; L > maxL {
			L = maxL
		}
		if L < 2 {
			L = 2
		}

		target := cfg.PathNominal * (1 - cfg.PathSpread/2 + cfg.PathSpread*r.Float64())
		// Split target across L gates with jitter, then renormalize.
		weights := make([]float64, L)
		sum := 0.0
		for k := range weights {
			weights[k] = 0.8 + 0.4*r.Float64()
			sum += weights[k]
		}
		gates := make([]int, L)
		for k := 0; k < L; k++ {
			nom := target * weights[k] / sum
			cx, cy := cellFor(k, L)
			gates[k] = newGate(cx, cy, nom)
		}
		canon := pathCanon(model, c.Gates, gates)
		minScale := cfg.MinScaleLo + (cfg.MinScaleHi-cfg.MinScaleLo)*r.Float64()
		path := Path{
			ID:       i,
			From:     from,
			To:       to,
			Gates:    gates,
			Cluster:  cluster,
			MinScale: minScale,
			Max:      ssta.ShiftMean(canon, cfg.SetupTime),
			Min:      ssta.Scale(canon, minScale),
		}
		c.Paths = append(c.Paths, path)
	}

	// Filler gates: non-critical logic so ng matches the profile, scattered
	// across the whole die.
	for gateBudget > 0 {
		newGate(r.Intn(gw), r.Intn(gh), 0.05+0.1*r.Float64())
	}

	// Nominal period from the statistical critical delay (Clark max mean).
	c.TNominal = ssta.MaxAll(c.MaxCanons()).Mean

	tau := c.TNominal / cfg.BufferRangeDiv
	c.Buf = skew.Uniform(ns, buffered, -tau/2, tau/2, cfg.BufferSteps)

	// ATPG logic-masking exclusions among otherwise batchable pairs.
	nExcl := int(cfg.ExclusiveFrac * float64(np))
	for k := 0; k < nExcl; k++ {
		a, b := r.Intn(np), r.Intn(np)
		if a == b {
			continue
		}
		pa, pb := c.Paths[a], c.Paths[b]
		if pa.From == pb.From || pa.To == pb.To {
			continue // already conflicting structurally
		}
		c.Exclusive = append(c.Exclusive, [2]int{a, b})
	}

	c.packLoadings()
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("circuit: generated circuit invalid: %w", err)
	}
	return c, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
