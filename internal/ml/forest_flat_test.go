package ml_test

import (
	"fmt"
	"math"
	"testing"

	"fakeproject/internal/fc"
	"fakeproject/internal/features"
	"fakeproject/internal/ml"
)

// TestFlatForestMatchesPointerTrees: the deployed forest predicts over
// flattened node arrays; over every account of the FC gold standard — and
// over accounts moved onto, just above and just below every threshold the
// forest splits on, or with a feature NaN — its probability is the pointer
// trees', to the last bit, and its early-exit label is that probability's
// at 0.5.
func TestFlatForestMatchesPointerTrees(t *testing.T) {
	gold, err := fc.BuildGoldStandard(600, 20140302)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gold.Dataset(features.LookupSet(), false, false)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := ml.TrainForest(data, ml.ForestConfig{Trees: 21, Seed: 20140302})
	if err != nil {
		t.Fatal(err)
	}
	check := func(x []float64) {
		t.Helper()
		flat, ptr := forest.PredictProba(x), forest.PointerProba(x)
		if math.Float64bits(flat) != math.Float64bits(ptr) {
			t.Fatalf("PredictProba(%v) = %x flattened, %x over pointer trees", x, math.Float64bits(flat), math.Float64bits(ptr))
		}
		if got, want := forest.Predict(x), label(flat); got != want {
			t.Fatalf("Predict(%v) = %d, PredictProba = %v says %d", x, got, flat, want)
		}
	}
	for _, row := range data.X {
		check(row)
	}
	feature, threshold := forest.Splits()
	if len(feature) < 21 {
		t.Fatalf("forest splits %d times: not the forest this test is about", len(feature))
	}
	for _, row := range data.X[:40] {
		x := append([]float64(nil), row...)
		for i, f := range feature {
			for _, v := range []float64{threshold[i], math.Nextafter(threshold[i], math.Inf(1)), math.Nextafter(threshold[i], math.Inf(-1))} {
				x[f] = v
				check(x)
			}
			x[f] = row[f]
		}
		for f := range x {
			x[f] = math.NaN()
			check(x)
			x[f] = row[f]
		}
	}
	nan := make([]float64, len(data.X[0]))
	for f := range nan {
		nan[f] = math.NaN()
	}
	check(nan)
}

// label is the label PredictProba's p gives at the 0.5 threshold.
func label(p float64) int {
	if p >= 0.5 {
		return ml.LabelFake
	}
	return ml.LabelHuman
}

// constant is a stump whose two leaves are both p: every row gets p.
func constant(p float64) ml.Stump { return ml.Stump{Left: p, Right: p} }

// checkVote fails t unless forest labels x as PredictProba(x) >= 0.5 does,
// and that label is want.
func checkVote(t *testing.T, name string, forest *ml.RandomForest, x []float64, want int) {
	t.Helper()
	p := forest.PredictProba(x)
	if got := forest.Predict(x); got != label(p) || got != want {
		t.Fatalf("%s: Predict = %d, PredictProba = %v (label %d), want %d", name, got, p, label(p), want)
	}
}

// TestForestVoteOnTheHalf: the early-exit vote keeps the verdict where it
// is closest to turning. A mean of exactly 0.5 is fake, whether the trees
// that reach n/2 come first or last; and where k trees sum to a few ulps
// under k - n/2 and every later tree gives 1, the one-by-one sum lands on
// n/2 although the partial sum plus the trees left, added in one step,
// falls short of it — the case a human exit without its margin gets wrong.
func TestForestVoteOnTheHalf(t *testing.T) {
	x := []float64{0}
	repeat := func(p float64, n int) []ml.Stump {
		out := make([]ml.Stump, n)
		for i := range out {
			out[i] = constant(p)
		}
		return out
	}
	onHalf := map[string][]ml.Stump{
		"four halves":              repeat(0.5, 4),
		"one then zero":            {constant(1), constant(0)},
		"zero then one":            {constant(0), constant(1)},
		"zeros, a half, ones":      append(append(repeat(0, 10), constant(0.5)), repeat(1, 10)...),
		"ones, a half, zeros":      append(append(repeat(1, 10), constant(0.5)), repeat(0, 10)...),
		"thirds to one and a half": {constant(1.0 / 3), constant(1.0 / 3), constant(1.0 / 3), constant(0.5), constant(1)},
	}
	for name, stumps := range onHalf {
		checkVote(t, name, ml.StumpForest(stumps...), x, ml.LabelFake)
	}
	// A stump splitting on x[0] at 0 separates the rows either side of it.
	split := ml.StumpForest(ml.Stump{Threshold: 0, Left: 1, Right: 0}, constant(0.5), ml.Stump{Threshold: 0, Left: 0, Right: 1})
	checkVote(t, "split, left", split, []float64{-1}, ml.LabelFake)
	checkVote(t, "split, NaN goes right", split, []float64{math.NaN()}, ml.LabelFake)

	traps := 0
	for n := 3; n <= 31; n++ {
		half := float64(n) / 2
		for k := n/2 + 1; k < n; k++ {
			left := n - k
			s := half - float64(left)
			for step := 0; step < 16; step++ {
				s = math.Nextafter(s, 0)
				oneStep, byOnes := s+float64(left), s
				for i := 0; i < left; i++ {
					byOnes++
				}
				if oneStep >= half || byOnes < half {
					continue
				}
				traps++
				stumps := append(append([]ml.Stump{constant(s)}, repeat(0, k-1)...), repeat(1, left)...)
				checkVote(t, fmt.Sprintf("%d trees, %d summing to %v, then ones", n, k, s), ml.StumpForest(stumps...), x, ml.LabelFake)
			}
		}
	}
	if traps < 20 {
		t.Fatalf("found %d rounding traps: the search no longer finds the sums this test is about", traps)
	}
}

// FuzzForestPredict: over forests of 1 to 32 stumps whose leaves come from
// values that sum onto and around n/2 (halves, thirds, tenths, the ulps
// beside 0.5) and rows of finite, infinite and NaN features, Predict is
// PredictProba >= 0.5. The first byte picks the stump count; stump i takes
// its leaves (low and high nibble), feature and threshold from byte i of
// the rest, cyclically, and the last byte picks the row.
func FuzzForestPredict(f *testing.F) {
	// four halves: exactly n/2
	f.Add([]byte{3, 0x22, 0x22, 0x22, 0x22, 0})
	// three thirds, a half, a one
	f.Add([]byte{4, 0x33, 0x33, 0x33, 0x22, 0x11})
	// the rounding trap of 5 trees
	f.Add([]byte{4, 0xcc, 0x00, 0x00, 0x11, 0x11})
	// zeros, a half, ones
	f.Add([]byte{20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x22, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11})
	leaves := []float64{0, 1, 0.5, 1.0 / 3, 2.0 / 3, 0.1, 0.2, 0.3, 0.7, 0.9,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 0.4999999999999997, 0.25, 0.75, 1.0 / 7}
	features := []float64{-1, 0, 1, math.NaN(), math.Inf(1), math.Inf(-1), 0.5, 1e300}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%32
		data = data[1:]
		stumps := make([]ml.Stump, n)
		for i := range stumps {
			b := data[i%len(data)]
			stumps[i] = ml.Stump{Feature: int(b) % 3, Threshold: features[int(b/3)%8], Left: leaves[b%16], Right: leaves[b>>4]}
		}
		last := data[len(data)-1]
		x := []float64{features[last%8], features[(last>>3)%8], features[last>>5]}
		forest := ml.StumpForest(stumps...)
		if got, want := forest.Predict(x), label(forest.PredictProba(x)); got != want {
			t.Fatalf("%d stumps %+v, row %v: Predict = %d, PredictProba = %v", n, stumps, x, got, forest.PredictProba(x))
		}
	})
}
