package ml_test

import (
	"math"
	"testing"

	"fakeproject/internal/fc"
	"fakeproject/internal/features"
	"fakeproject/internal/ml"
)

// TestFlatForestMatchesPointerTrees: the deployed forest predicts over
// flattened node arrays; over every account of the FC gold standard — and
// over accounts moved onto, just above and just below every threshold the
// forest splits on — its probability is the pointer trees', to the last bit.
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
	}
}
