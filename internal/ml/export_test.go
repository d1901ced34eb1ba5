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

// Stump is one single-split tree of a StumpForest: x goes to the Left leaf
// when x[Feature] <= Threshold and to the Right leaf otherwise.
type Stump struct {
	Feature     int
	Threshold   float64
	Left, Right float64
}

// StumpForest builds a forest of stumps, in order, through the same
// flattening training uses. Its leaves are arbitrary, so a test can put the
// vote's running sum wherever it wants, n/2 and a few ulps either side of
// it included.
func StumpForest(stumps ...Stump) *RandomForest {
	f := &RandomForest{}
	for _, s := range stumps {
		root := &treeNode{feature: s.Feature, threshold: s.Threshold,
			left: &treeNode{leaf: true, prob: s.Left}, right: &treeNode{leaf: true, prob: s.Right}}
		f.trees = append(f.trees, &DecisionTree{root: root, nNodes: 3})
		f.roots = append(f.roots, int32(len(f.nodes)))
		f.nodes = flatten(f.nodes, root)
	}
	return f
}
