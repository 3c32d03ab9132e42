package ml

import (
	"sort"

	"mct/internal/rng"
)

// This file keeps the pointer-tree gradient-boosting implementation that
// GBoost replaced, verbatim apart from the Fit loop being a free function.
// It is the differential reference: the flat ensemble must predict exactly
// what it predicts, bit for bit (TestGBoostMatchesReference,
// FuzzGBoostMatchesReference).

// regTree is a depth-limited least-squares regression tree — the weak
// learner of the gradient-boosting ensemble.
type regTree struct {
	// Internal node: feature/threshold with left (<=) and right (>)
	// children. Leaf: value with left == nil.
	feature   int
	threshold float64
	left      *regTree
	right     *regTree
	value     float64
}

type treeOptions struct {
	maxDepth    int
	minLeaf     int
	minGain     float64
	featureSubs []int // candidate features (nil = all)
}

// fitTree builds a regression tree on rows idx of X/y.
func fitTree(X [][]float64, y []float64, idx []int, opt treeOptions, depth int) *regTree {
	mean := meanAt(y, idx)
	if depth >= opt.maxDepth || len(idx) < 2*opt.minLeaf {
		return &regTree{value: mean}
	}
	bestGain := opt.minGain
	bestFeat, bestThr := -1, 0.0

	features := opt.featureSubs
	if features == nil {
		features = make([]int, len(X[0]))
		for j := range features {
			features[j] = j
		}
	}

	// Pre-compute total sums for gain evaluation.
	var totSum float64
	for _, i := range idx {
		totSum += y[i]
	}
	n := float64(len(idx))

	order := make([]int, len(idx))
	for _, j := range features {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][j] < X[order[b]][j] })

		var leftSum float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			leftSum += y[i]
			// Can't split between equal feature values. The slice is
			// sorted ascending on feature j, so adjacent values are equal
			// exactly when the earlier one is not strictly smaller.
			if !(X[order[k]][j] < X[order[k+1]][j]) {
				continue
			}
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < opt.minLeaf || int(nr) < opt.minLeaf {
				continue
			}
			rightSum := totSum - leftSum
			// SSE reduction = total SSE - (left SSE + right SSE); with
			// the Σy² term fixed this maximizes leftSum²/nl + rightSum²/nr.
			gain := leftSum*leftSum/nl + rightSum*rightSum/nr - totSum*totSum/n
			if gain > bestGain {
				bestGain = gain
				bestFeat = j
				bestThr = (X[order[k]][j] + X[order[k+1]][j]) / 2
			}
		}
	}

	if bestFeat < 0 {
		return &regTree{value: mean}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &regTree{value: mean}
	}
	return &regTree{
		feature:   bestFeat,
		threshold: bestThr,
		left:      fitTree(X, y, li, opt, depth+1),
		right:     fitTree(X, y, ri, opt, depth+1),
	}
}

func (t *regTree) predict(x []float64) float64 {
	for t.left != nil {
		if x[t.feature] <= t.threshold {
			t = t.left
		} else {
			t = t.right
		}
	}
	return t.value
}

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// refGBoost is the reference ensemble: the old GBoost's fitted state.
type refGBoost struct {
	opt   GBoostOptions
	trees []*regTree
	bias  float64
}

// fitReference is the old GBoost.Fit loop. opt must already be clamped
// (NewGBoost(opt).opt).
func fitReference(opt GBoostOptions, X [][]float64, y []float64) *refGBoost {
	g := &refGBoost{opt: opt}
	n := len(X)
	r := g.opt.Rand
	if r == nil {
		r = rng.New(g.opt.Seed)
	}

	var bias float64
	for _, v := range y {
		bias += v
	}
	bias /= float64(n)

	resid := make([]float64, n)
	for i, v := range y {
		resid[i] = v - bias
	}

	topt := treeOptions{maxDepth: g.opt.Depth, minLeaf: g.opt.MinLeaf}
	trees := make([]*regTree, 0, g.opt.Trees)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	sampleSize := int(g.opt.Subsample * float64(n))
	if sampleSize < 2 {
		sampleSize = n
	}

	for round := 0; round < g.opt.Trees; round++ {
		idx := all
		if sampleSize < n {
			perm := r.Perm(n)
			idx = perm[:sampleSize]
		}
		t := fitTree(X, resid, idx, topt, 0)
		trees = append(trees, t)
		for i := 0; i < n; i++ {
			resid[i] -= g.opt.Shrinkage * t.predict(X[i])
		}
	}
	g.trees = trees
	g.bias = bias
	return g
}

// Predict is the old GBoost.Predict.
func (g *refGBoost) Predict(x []float64) float64 {
	s := g.bias
	for _, t := range g.trees {
		s += g.opt.Shrinkage * t.predict(x)
	}
	return s
}
