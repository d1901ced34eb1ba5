package drand

import (
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestForkIsStableAndIndependent(t *testing.T) {
	root := New(7)
	c1 := root.Fork("users")
	// Consuming randomness from the parent must not change children.
	for i := 0; i < 100; i++ {
		root.Float64()
	}
	c2 := New(7).Fork("users")
	for i := 0; i < 100; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatalf("fork stream not stable at draw %d", i)
		}
	}
}

func TestForkDifferentLabelsDiffer(t *testing.T) {
	root := New(7)
	a := root.Fork("alpha")
	b := root.Fork("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct labels produced %d/100 identical draws", same)
	}
}

func TestForkNDistinctPerEntity(t *testing.T) {
	root := New(99)
	seen := make(map[uint64]bool)
	for i := int64(0); i < 1000; i++ {
		s := root.ForkN("user", i)
		if seen[s.Seed()] {
			t.Fatalf("duplicate child seed for entity %d", i)
		}
		seen[s.Seed()] = true
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(5)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %.4f, want ≈0.3", got)
	}
}

func TestIntBetweenBoundsProperty(t *testing.T) {
	s := New(11)
	f := func(lo int8, span uint8) bool {
		l, h := int(lo), int(lo)+int(span)
		v := s.IntBetween(l, h)
		return v >= l && v <= h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntBetweenPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on hi < lo")
		}
	}()
	New(1).IntBetween(3, 2)
}

func TestNormClamped(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.NormClamped(0, 10, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("NormClamped out of bounds: %v", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(4)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(2, 1.5); v <= 0 {
			t.Fatalf("LogNormal non-positive: %v", v)
		}
	}
}

func TestParetoAtLeastXm(t *testing.T) {
	s := New(4)
	for i := 0; i < 1000; i++ {
		if v := s.Pareto(5, 1.2); v < 5 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(12)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(7)
	}
	mean := sum / n
	if math.Abs(mean-7) > 0.2 {
		t.Fatalf("Exp(7) sample mean = %.3f, want ≈7", mean)
	}
}

func TestWeightedChoiceRespectsZeros(t *testing.T) {
	s := New(6)
	w := []float64{0, 3, 0, 1}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[s.WeightedChoice(w)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight index chosen: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[3])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("weight ratio = %.2f, want ≈3", ratio)
	}
}

func TestWeightedChoicePanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on zero total weight")
		}
	}()
	New(1).WeightedChoice([]float64{0, 0})
}

func TestWeightedChoiceNegativeTreatedAsZero(t *testing.T) {
	s := New(8)
	for i := 0; i < 1000; i++ {
		if got := s.WeightedChoice([]float64{-5, 1}); got != 1 {
			t.Fatalf("negative weight chosen, got index %d", got)
		}
	}
}

func TestSampleIntsProperties(t *testing.T) {
	s := New(10)
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw) % (n + 1)
		out := s.SampleInts(n, k)
		if len(out) != k {
			return false
		}
		seen := make(map[int]bool, k)
		prev := -1
		for _, v := range out {
			if v < 0 || v >= n || seen[v] || v <= prev {
				return false
			}
			seen[v] = true
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIntsFullRange(t *testing.T) {
	s := New(10)
	out := s.SampleInts(10, 10)
	for i, v := range out {
		if v != i {
			t.Fatalf("SampleInts(10,10) = %v, want identity", out)
		}
	}
}

func TestSampleIntsUniformity(t *testing.T) {
	// Each element of [0,20) should appear in a 5-element sample with
	// probability 1/4.
	s := New(21)
	counts := make([]int, 20)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleInts(20, 5) {
			counts[v]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.25) > 0.02 {
			t.Fatalf("element %d inclusion freq %.3f, want ≈0.25", i, got)
		}
	}
}

// sortedSampleInts is SampleInts as it was before the Fisher–Yates branch
// read its draws back by marking: the same draws, sorted.
func sortedSampleInts(s *Source, n, k int) []int {
	if k == 0 {
		return nil
	}
	if k*4 < n {
		chosen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for j := n - k; j < n; j++ {
			t := s.Intn(j + 1)
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
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := idx[:k]
	sort.Ints(out)
	return out
}

// TestSampleIntsMatchesSortedReference: SampleInts returns exactly the
// sorted draws of the reference, and leaves the stream where the reference
// leaves it, on both sides of the Floyd / Fisher–Yates switch at k = n/4
// and at its ends — the audit's 9,604 of 20,000 included.
func TestSampleIntsMatchesSortedReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 100, 101, 20000} {
		for _, k := range []int{0, 1, n/4 - 1, n / 4, n/4 + 1, n - 1, n, 9604} {
			if k < 0 || k > n {
				continue
			}
			for seed := uint64(1); seed <= 3; seed++ {
				got, want := New(seed), New(seed)
				g, w := got.SampleInts(n, k), sortedSampleInts(want, n, k)
				if !slices.Equal(g, w) {
					t.Fatalf("SampleInts(%d, %d) seed %d = %v, want %v", n, k, seed, g, w)
				}
				if a, b := got.Intn(1<<30), want.Intn(1<<30); a != b {
					t.Fatalf("SampleInts(%d, %d) seed %d left the stream at %d, want %d", n, k, seed, a, b)
				}
			}
		}
	}
}

func TestSampleIntsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for k > n")
		}
	}()
	New(1).SampleInts(3, 4)
}

func TestScreenNameShape(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		name := s.ScreenName()
		if len(name) < 6 || len(name) > 14 {
			t.Fatalf("screen name length %d out of [6,14]: %q", len(name), name)
		}
		for j := 0; j < len(name); j++ {
			c := name[j]
			ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("invalid character %q in screen name %q", c, name)
			}
		}
		if name[0] >= '0' && name[0] <= '9' {
			t.Fatalf("screen name starts with digit: %q", name)
		}
	}
}

func TestZipfInRange(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		if v := s.Zipf(1.5, 100); v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// TestSeedForMatchesFNV pins the inlined FNV-64a fold to the stdlib
// implementation: derived seeds are persisted (every account record stores
// one), so the fold must stay bit-identical across refactors.
func TestSeedForMatchesFNV(t *testing.T) {
	ref := func(seed uint64, n *int64, label string) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(seed >> (8 * i))
		}
		_, _ = h.Write(buf[:])
		if n != nil {
			for i := 0; i < 8; i++ {
				buf[i] = byte(uint64(*n) >> (8 * i))
			}
			_, _ = h.Write(buf[:])
		}
		_, _ = h.Write([]byte(label))
		return h.Sum64()
	}
	seeds := []uint64{0, 1, 42, 1<<63 + 12345, ^uint64(0)}
	ns := []int64{0, 1, -1, 999999, 1 << 40}
	labels := []string{"", "user", "timeline", "a much longer label with spaces"}
	for _, seed := range seeds {
		src := New(seed)
		for _, label := range labels {
			if got, want := src.SeedFor(label), ref(seed, nil, label); got != want {
				t.Errorf("SeedFor(%d, %q) = %d, want %d", seed, label, got, want)
			}
			for _, n := range ns {
				n := n
				if got, want := src.SeedForN(label, n), ref(seed, &n, label); got != want {
					t.Errorf("SeedForN(%d, %q, %d) = %d, want %d", seed, label, n, got, want)
				}
			}
		}
	}
}

// TestSeedForDoesNotAllocate guards the account-creation hot path: one
// derived seed per created account must not mean one heap allocation per
// created account.
func TestSeedForDoesNotAllocate(t *testing.T) {
	src := New(7)
	if avg := testing.AllocsPerRun(1000, func() {
		_ = src.SeedFor("user")
		_ = src.SeedForN("user", 12345)
	}); avg != 0 {
		t.Fatalf("SeedFor/SeedForN allocate %.1f times per call, want 0", avg)
	}
}

// TestHashStringMatchesFNV pins the exported string hash to the stdlib.
func TestHashStringMatchesFNV(t *testing.T) {
	for _, s := range []string{"", "a", "genpop_target", "une assez longue chaîne"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(s))
		if got, want := HashString(s), h.Sum64(); got != want {
			t.Errorf("HashString(%q) = %d, want %d", s, got, want)
		}
	}
}
