package circuit

import "math"

// Lanes is the width of the DotRuns kernel: the number of interleaved
// vectors one walk over a coefficient row's runs dots it with, as that many
// independent accumulator chains. The covariance kernel takes Lanes paths
// per block and the tester's sampler Lanes chips.
const Lanes = 8

// buildCov returns the max-delay covariance and correlation matrices of the
// paths, bit for bit what the dense loop over Circuit.Cov computes: entry
// (i, j) is Σ_k a_i[k]·a_j[k] summed from +0.0 in ascending k (la.Dot's
// sequence), plus Rand² on the diagonal, and the correlation is
// cov[i][j] / (sd[i]·sd[j]) with sd[i] = √cov[i][i].
//
// The columns are taken Lanes paths at a time. Their loadings are
// interleaved into one block, and DotRuns walks each row over only the
// factor indices where both its own loadings and some lane's are nonzero
// (runs from LoadingRuns), which is exact for the reason DotRuns gives.
func buildCov(paths []Path, runs []PathRuns) (cov, corr [][]float64) {
	n := len(paths)
	cov, corr = square(n), square(n)
	if n == 0 {
		return cov, corr
	}
	basis := len(paths[0].Max.Coef)
	z := make([]float64, basis*Lanes)
	var both []Run
	for j0 := 0; j0 < n; j0 += Lanes {
		lanes := min(Lanes, n-j0)
		clear(z)
		var union []Run
		for w := range lanes {
			coef := paths[j0+w].Max.Coef
			for _, r := range runs[j0+w].Max {
				for k := r.Lo; k < r.Hi; k++ {
					z[k*Lanes+w] = coef[k]
				}
			}
			union = unionRuns(union, runs[j0+w].Max)
		}
		// Row i fills the block's entries (j, i) for i ≤ j: the lower
		// triangle, row-contiguous in each of the block's rows.
		for i := range min(n, j0+lanes) {
			both = intersectRuns(both[:0], runs[i].Max, union)
			acc := DotRuns(paths[i].Max.Coef, both, z)
			for w := max(0, i-j0); w < lanes; w++ {
				cov[j0+w][i] = acc[w]
			}
		}
	}
	sd := make([]float64, n)
	for i := range n {
		cov[i][i] += float64(paths[i].Max.Rand * paths[i].Max.Rand)
		sd[i] = math.Sqrt(cov[i][i])
	}
	for i := range n {
		corr[i][i] = 1
		for j := range i {
			if sd[i] > 0 && sd[j] > 0 {
				corr[i][j] = cov[i][j] / float64(sd[i]*sd[j])
			}
		}
	}
	mirrorLower(cov)
	mirrorLower(corr)
	return cov, corr
}

// mirrorLower copies the strict lower triangle of the square matrix m onto
// its upper triangle, tile by tile so that both sides stay in cache.
func mirrorLower(m [][]float64) {
	const tile = 64
	n := len(m)
	for i0 := 0; i0 < n; i0 += tile {
		for j0 := 0; j0 <= i0; j0 += tile {
			for i := i0; i < min(n, i0+tile); i++ {
				for j := j0; j < min(i, j0+tile); j++ {
					m[j][i] = m[i][j]
				}
			}
		}
	}
}

// square returns an n×n zero matrix as row slices over one backing array.
func square(n int) [][]float64 {
	all := make([]float64, n*n)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// DotRuns returns Σ_k coef[k]·z[k*Lanes+w] over the runs' indices for
// every lane w, each summed from +0.0 in ascending k. When the runs hold
// every nonzero coef[k] (LoadingRuns) and z is finite, each lane is bit for
// bit la.Dot of coef with that lane: a skipped product is ±0, and an
// accumulator that starts at +0.0 can never become −0.0, so adding ±0
// would not change it. Every product and sum is rounded on its own (an
// explicit float64 conversion), so no platform fuses them into one FMA.
func DotRuns(coef []float64, runs []Run, z []float64) [Lanes]float64 {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for _, r := range runs {
		zr := z[r.Lo*Lanes : r.Hi*Lanes]
		for k, cf := range coef[r.Lo:r.Hi] {
			zk := (*[Lanes]float64)(zr[k*Lanes:])
			a0 += float64(cf * zk[0])
			a1 += float64(cf * zk[1])
			a2 += float64(cf * zk[2])
			a3 += float64(cf * zk[3])
			a4 += float64(cf * zk[4])
			a5 += float64(cf * zk[5])
			a6 += float64(cf * zk[6])
			a7 += float64(cf * zk[7])
		}
	}
	return [Lanes]float64{a0, a1, a2, a3, a4, a5, a6, a7}
}

// unionRuns returns the union of the ascending, disjoint run lists a and b
// as a new such list.
func unionRuns(a, b []Run) []Run {
	out := make([]Run, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var r Run
		if j == len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			r, i = a[i], i+1
		} else {
			r, j = b[j], j+1
		}
		if last := len(out) - 1; last >= 0 && r.Lo <= out[last].Hi {
			out[last].Hi = max(out[last].Hi, r.Hi)
		} else {
			out = append(out, r)
		}
	}
	return out
}

// intersectRuns appends the intersection of the ascending, disjoint run
// lists a and b to dst.
func intersectRuns(dst, a, b []Run) []Run {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].Lo, b[j].Lo), min(a[i].Hi, b[j].Hi)
		if lo < hi {
			dst = append(dst, Run{Lo: lo, Hi: hi})
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return dst
}
