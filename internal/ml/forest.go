package ml

import (
	"fmt"
	"math"

	"fakeproject/internal/drand"
)

// ForestConfig tunes random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size; 0 means 31.
	Trees int
	// Tree configures the member trees. Tree.FeatureSubset of 0 defaults
	// to sqrt(#features), the standard forest heuristic.
	Tree TreeConfig
	// Seed drives bootstrapping and per-tree randomness.
	Seed uint64
}

func (c ForestConfig) withDefaults(nFeatures int) ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 31
	}
	if c.Tree.FeatureSubset <= 0 {
		c.Tree.FeatureSubset = int(math.Sqrt(float64(nFeatures)))
		if c.Tree.FeatureSubset < 1 {
			c.Tree.FeatureSubset = 1
		}
	}
	return c
}

// RandomForest is a bagged ensemble of CART trees; P(fake) is the mean of
// the member probabilities.
//
// Training grows pointer trees; prediction walks a flattened copy of them.
// A deployed forest predicts once per audited account (9,604 times per FC
// audit, 21 trees each), and chasing heap pointers through a few thousand
// separately allocated nodes is most of that cost; the flat form keeps every
// node of every tree in one slice, a tree's nodes in preorder, so a walk
// stays inside a few cache lines. Same comparisons, same tree order, same
// sum: the votes are bit-identical to the pointer trees'.
type RandomForest struct {
	trees []*DecisionTree
	nodes []flatNode
	roots []int32 // index in nodes of each tree's root, in tree order
}

// flatNode is one tree node in the forest's node slice. A split's left
// child is the next node (preorder), its right child is at right; a leaf
// has feature < 0 and keeps P(fake) in value.
type flatNode struct {
	value   float64 // split threshold, or leaf probability
	feature int32
	right   int32
}

// flatten appends n's subtree to nodes in preorder.
func flatten(nodes []flatNode, n *treeNode) []flatNode {
	if n.leaf {
		return append(nodes, flatNode{value: n.prob, feature: -1})
	}
	at := len(nodes)
	nodes = append(nodes, flatNode{value: n.threshold, feature: int32(n.feature)})
	nodes = flatten(nodes, n.left)
	nodes[at].right = int32(len(nodes))
	return flatten(nodes, n.right)
}

var _ Classifier = (*RandomForest)(nil)

// TrainForest fits a random forest with bootstrap resampling.
func TrainForest(d Dataset, cfg ForestConfig) (*RandomForest, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(len(d.X[0]))
	root := drand.New(cfg.Seed)
	forest := &RandomForest{trees: make([]*DecisionTree, 0, cfg.Trees)}
	n := d.Len()
	for b := 0; b < cfg.Trees; b++ {
		src := root.ForkN("bootstrap", int64(b))
		idx := make([]int, n)
		for i := range idx {
			idx[i] = src.Intn(n)
		}
		treeCfg := cfg.Tree
		treeCfg.Seed = src.Fork("tree").Seed()
		tree, err := TrainTree(d.Subset(idx), treeCfg)
		if err != nil {
			return nil, fmt.Errorf("training tree %d: %w", b, err)
		}
		forest.trees = append(forest.trees, tree)
		forest.roots = append(forest.roots, int32(len(forest.nodes)))
		forest.nodes = flatten(forest.nodes, tree.root)
	}
	return forest, nil
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "random-forest" }

// Size reports the number of member trees.
func (f *RandomForest) Size() int { return len(f.trees) }

// PredictProba implements Classifier.
func (f *RandomForest) PredictProba(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range f.roots {
		n := f.nodes[i]
		for n.feature >= 0 {
			if x[n.feature] <= n.value {
				i++
			} else {
				i = n.right
			}
			n = f.nodes[i]
		}
		s += n.value
	}
	return s / float64(len(f.trees))
}

// Predict implements Classifier.
func (f *RandomForest) Predict(x []float64) int {
	if f.PredictProba(x) >= 0.5 {
		return LabelFake
	}
	return LabelHuman
}
