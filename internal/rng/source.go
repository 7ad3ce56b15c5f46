package rng

import "math/rand"

// The shape of math/rand's additive lagged-Fibonacci source (rng.go in the
// standard library): a 607-word feedback register tapped at lag 273.
const (
	srcLen   = 607
	srcTap   = 273
	srcMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271 // the seeding LCG: x ← 48271·x mod (2³¹−1)
	// srcWarm is the number of LCG steps math/rand discards before the
	// first register word.
	srcWarm = 20
)

var (
	// lcgPow[3i+j] = 48271^(srcWarm+1+3i+j) mod (2³¹−1): the power that
	// carries the reduced seed to the j-th LCG value register word i mixes.
	lcgPow [3 * srcLen]uint64
	// cooked is math/rand's rngCooked table, recovered at init from the
	// standard library's own output (see deriveCooked).
	cooked [srcLen]int64
)

func init() {
	p := uint64(1)
	for range srcWarm + 1 {
		p = mulMod(p, lcgMul)
	}
	for k := range lcgPow {
		lcgPow[k] = p
		p = mulMod(p, lcgMul)
	}
	cooked = deriveCooked()
}

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1): the 62-bit product
// folded twice on the Mersenne modulus. The modulus is prime and neither
// factor is a multiple of it, so the result is never 0 and the second fold
// already lands in [1, 2³¹−1).
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&int32max + x>>31
	return x&int32max + x>>31
}

// deriveCooked recovers math/rand's cooked table from the first srcLen
// outputs o[n] of a standard-library source seeded with 1. Output n adds
// register word tap = 606−n to word feed = 333−n (mod 607) and stores the
// sum at feed, so the seeded register vec can be read back: outputs
// 273..606 add an earlier output to an untouched word, and outputs 0..272
// add two untouched words, one of them already recovered. Each word is
// vec[i] = chain(i) XOR cooked[i], with chain(i) the seed's LCG values,
// which Seed with a zero cooked table computes.
func deriveCooked() [srcLen]int64 {
	ref := rand.NewSource(1).(rand.Source64)
	var o, vec [srcLen]int64
	for n := range o {
		o[n] = int64(ref.Uint64())
	}
	for n := srcTap; n <= 333; n++ {
		vec[333-n] = o[n] - o[n-srcTap]
	}
	for n := 334; n < srcLen; n++ {
		vec[940-n] = o[n] - o[n-srcTap]
	}
	for n := range srcTap {
		vec[333-n] = o[n] - vec[606-n]
	}
	var chain Source
	chain.Seed(1) // cooked is still all zero: chain.vec holds chain(i)
	for i := range vec {
		vec[i] ^= chain.vec[i]
	}
	return vec
}

// Source is a rand.Source64 that reproduces math/rand's seeded source
// (rand.NewSource) output for output: the same seed reduction, register,
// tap and feed, so rand.New(src) yields the same NormFloat64, Float64 and
// Int63 streams as rand.New(rand.NewSource(seed)). The Go 1 compatibility
// promise freezes that stream.
//
// Only Seed differs. math/rand walks its seeding LCG serially, 1,841
// steps per seed; Source computes each LCG value independently as
// x₀·48271^k mod (2³¹−1) from a table of powers, so the 1,821 products
// carry no dependency chain. A Source must be seeded before use and is not
// safe for concurrent use.
type Source struct {
	tap, feed int
	vec       [srcLen]int64
}

// Seed resets the source to math/rand's state for seed.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := (*[3]uint64)(lcgPow[3*i:])
		u := int64(mulMod(x, p[0])) << 40
		u ^= int64(mulMod(x, p[1])) << 20
		u ^= int64(mulMod(x, p[2]))
		s.vec[i] = u ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit output.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next output with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() & srcMask) }
