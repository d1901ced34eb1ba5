// Package drand provides deterministic random sources and the distribution
// helpers used by every synthetic generator in the reproduction.
//
// Determinism policy: a single root seed fully determines a simulation.
// Components derive child sources via Fork(label) so that adding a new
// consumer never perturbs the streams of existing ones — the property that
// keeps regression tests stable as the system grows.
package drand

import (
	"math"
	"math/rand"
	"sort"
)

// Source is a deterministic random source with distribution helpers.
// It is NOT safe for concurrent use; fork one per goroutine instead.
type Source struct {
	r *rand.Rand
	// seed is retained so children can be derived stably.
	seed uint64
}

// New returns a Source seeded with the given root seed.
func New(seed uint64) *Source {
	return &Source{r: rand.New(rand.NewSource(int64(seed))), seed: seed}
}

// Fork derives an independent child source from this source's seed and a
// label. Forking is a pure function of (seed, label): it does not consume
// randomness from the parent, so the set of consumers can grow without
// shifting existing streams.
func (s *Source) Fork(label string) *Source { return New(s.SeedFor(label)) }

// ForkN derives a child source from an integer label, convenient when
// generating per-entity streams (one per user ID).
func (s *Source) ForkN(label string, n int64) *Source { return New(s.SeedForN(label, n)) }

// Seed reports the seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// FNV-64a, inlined. hash/fnv returns its state behind a hash.Hash64
// interface, which costs a heap allocation per call — too much for the
// account-creation hot path, which derives one seed per account (~1.5M
// calls for the full testbed). The fold below is bit-identical to
// fnv.New64a().Write(...).Sum64().
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * fnvPrime64
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// HashString returns the FNV-64a hash of s without allocating — the shared
// string-hashing primitive for allocation-sensitive index striping.
func HashString(s string) uint64 {
	return fnvString(fnvOffset64, s)
}

// SeedFor returns the seed Fork(label) would give its child, without
// constructing the child's generator. Hot paths that only need a derived
// seed value (not a stream) use this: building a math/rand generator costs
// a 607-word state initialisation, ~10µs per call. It does not allocate.
func (s *Source) SeedFor(label string) uint64 { return HashSeed(s.seed, label) }

// HashSeed is the derivation behind SeedFor for callers that hold a bare
// seed rather than a Source: FNV-64a over seed's eight little-endian bytes
// followed by label's. It does not allocate.
func HashSeed(seed uint64, label string) uint64 {
	return fnvString(fnvUint64(fnvOffset64, seed), label)
}

// SeedForN returns the seed ForkN(label, n) would give its child, without
// constructing the child's generator. It does not allocate.
func (s *Source) SeedForN(label string, n int64) uint64 {
	return fnvString(fnvUint64(fnvUint64(fnvOffset64, s.seed), uint64(n)), label)
}

// Rand exposes the underlying *rand.Rand for callers that need the raw API
// (e.g. sort shuffles). The returned value shares state with the Source.
func (s *Source) Rand() *rand.Rand { return s.r }

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63n returns a uniform int64 in [0,n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 { return s.r.Int63n(n) }

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// IntBetween returns a uniform int in [lo, hi] inclusive.
// It panics if hi < lo.
func (s *Source) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("drand: IntBetween with hi < lo")
	}
	return lo + s.r.Intn(hi-lo+1)
}

// Norm returns a normal sample with the given mean and standard deviation.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// NormClamped returns a normal sample clamped to [lo, hi].
func (s *Source) NormClamped(mean, stddev, lo, hi float64) float64 {
	v := s.Norm(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// LogNormal returns exp(N(mu, sigma)), the classic heavy-tailed shape of
// social-network count distributions (followers, statuses).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// Pareto returns a Pareto(xm, alpha) sample: xm * U^(-1/alpha).
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return xm * math.Pow(u, -1/alpha)
}

// Exp returns an exponential sample with the given mean. Mean must be > 0.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Zipf returns a Zipf-distributed value in [0, n) with exponent sHape > 1.
func (s *Source) Zipf(shape float64, n uint64) uint64 {
	z := rand.NewZipf(s.r, shape, 1, n-1)
	return z.Uint64()
}

// WeightedChoice returns an index in [0, len(weights)) chosen proportionally
// to weights. Non-positive weights are treated as zero. It panics if the
// total weight is not positive.
func (s *Source) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("drand: WeightedChoice with non-positive total weight")
	}
	x := s.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if x < acc {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("drand: unreachable")
}

// Shuffle permutes the n elements using swap, uniformly at random.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// SampleInts returns k distinct integers drawn uniformly from [0,n),
// in sorted order. It panics if k > n or k < 0.
//
// For small k relative to n it uses Floyd's algorithm (O(k) memory,
// no O(n) allocation) and sorts the k draws; otherwise it partially
// shuffles an index slice and reads the chosen values back in ascending
// order from a mark per value, O(n) with no sort.
func (s *Source) SampleInts(n, k int) []int {
	if k < 0 || k > n {
		panic("drand: SampleInts with k out of range")
	}
	if k == 0 {
		return nil
	}
	if k*4 < n {
		// Floyd's algorithm.
		chosen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for j := n - k; j < n; j++ {
			t := s.r.Intn(j + 1)
			if _, dup := chosen[t]; dup {
				t = j
			}
			chosen[t] = struct{}{}
			out = append(out, t)
		}
		sort.Ints(out)
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Partial Fisher-Yates: fix the first k positions.
	for i := 0; i < k; i++ {
		j := i + s.r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := make([]bool, n)
	for _, v := range idx[:k] {
		chosen[v] = true
	}
	out := idx[:0]
	for v, ok := range chosen {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// Letters used by name synthesis; kept lowercase-alphanumeric to resemble
// Twitter screen-name conventions.
const nameAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789_"

// ScreenName synthesises a plausible Twitter screen name of length in
// [6, 14] from this source.
func (s *Source) ScreenName() string {
	return string(s.AppendScreenName(make([]byte, 0, 14)))
}

// AppendScreenName appends the name ScreenName would return to dst, making
// the same draws.
func (s *Source) AppendScreenName(dst []byte) []byte {
	n := s.IntBetween(6, 14)
	// First character alphabetic for readability.
	dst = append(dst, nameAlphabet[s.Intn(26)])
	for i := 1; i < n; i++ {
		dst = append(dst, nameAlphabet[s.Intn(len(nameAlphabet))])
	}
	return dst
}
