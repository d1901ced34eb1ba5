package ml

// PointerProba is PredictProba over the pointer trees training grew: the
// reference the flattened walk must reproduce bit for bit.
func (f *RandomForest) PointerProba(x []float64) float64 {
	s := 0.0
	for _, t := range f.trees {
		s += t.PredictProba(x)
	}
	return s / float64(len(f.trees))
}

// Splits lists every (feature, threshold) pair the forest's trees split on.
func (f *RandomForest) Splits() (feature []int, threshold []float64) {
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if n.leaf {
			return
		}
		feature, threshold = append(feature, n.feature), append(threshold, n.threshold)
		walk(n.left)
		walk(n.right)
	}
	for _, t := range f.trees {
		walk(t.root)
	}
	return feature, threshold
}
