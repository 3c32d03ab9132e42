package ml

import "math"

// treeNode is one node of a depth-limited least-squares regression tree —
// the weak learner of the gradient-boosting ensemble. A GBoost keeps every
// tree's nodes in one flat slice, tree after tree, each tree in preorder:
// an internal node's left child is the next node, so only the right
// child's index is stored.
type treeNode struct {
	// feature is the split feature of an internal node, or leafFeature.
	feature int
	// right is the index of an internal node's right (>) child.
	right int
	// value is an internal node's threshold (x[feature] <= value goes
	// left) or a leaf's prediction.
	value float64
}

const leafFeature = -1

// leafValue walks the tree whose root is nodes[root] for x.
func leafValue(nodes []treeNode, root int, x []float64) float64 {
	i := root
	for {
		n := &nodes[i]
		if n.feature == leafFeature {
			return n.value
		}
		if x[n.feature] <= n.value {
			i++
		} else {
			i = n.right
		}
	}
}

// treeFitter grows regression trees on a column-layout copy of the
// training rows. Its buffers are sized once per Fit and reused by every
// node of every tree, so growing a tree allocates nothing beyond the
// nodes themselves.
type treeFitter struct {
	n, d     int
	cols     []float64 // cols[j*n+i] is feature j of row i
	y        []float64 // targets (the boosting residuals)
	maxDepth int
	minLeaf  int
	pairs    []sortPair // per-feature (value, row) sort of a node's rows
	spill    []int      // right-hand rows during a stable partition
}

// newTreeFitter lays X out by columns and sizes the node buffers for trees
// grown on at most maxRows rows. y is the caller's target buffer.
func newTreeFitter(X [][]float64, y []float64, maxRows, maxDepth, minLeaf int) *treeFitter {
	n, d := len(X), len(X[0])
	f := &treeFitter{
		n: n, d: d,
		cols:     make([]float64, n*d),
		y:        y,
		maxDepth: maxDepth,
		minLeaf:  minLeaf,
		pairs:    make([]sortPair, maxRows),
		spill:    make([]int, 0, maxRows),
	}
	for i, row := range X {
		for j, v := range row {
			f.cols[j*n+i] = v
		}
	}
	return f
}

// col returns feature j over every training row.
func (f *treeFitter) col(j int) []float64 { return f.cols[j*f.n : (j+1)*f.n] }

// grow appends the tree fitted on rows (a non-empty slice of training row
// indices) to nodes, at depth depth. It reorders rows: each child's rows
// are a stable partition of its parent's, the order the children are fitted
// in.
func (f *treeFitter) grow(nodes []treeNode, rows []int, depth int) []treeNode {
	var sum float64
	for _, i := range rows {
		sum += f.y[i]
	}
	at := len(nodes)
	nodes = append(nodes, treeNode{feature: leafFeature, value: sum / float64(len(rows))})
	if depth >= f.maxDepth || len(rows) < 2*f.minLeaf {
		return nodes
	}
	feat, thr := f.bestSplit(rows, sum)
	if feat < 0 {
		return nodes
	}
	nl := f.partition(rows, feat, thr)
	if nl == 0 || nl == len(rows) {
		return nodes
	}
	nodes[at].feature, nodes[at].value = feat, thr
	nodes = f.grow(nodes, rows[:nl], depth+1)
	nodes[at].right = len(nodes)
	return f.grow(nodes, rows[nl:], depth+1)
}

// bestSplit returns the feature and threshold of the split of rows that
// most reduces the squared error, or feature -1 when no split reduces it.
// sum is Σ y over rows.
func (f *treeFitter) bestSplit(rows []int, sum float64) (feat int, thr float64) {
	feat = -1
	var bestGain float64
	n := float64(len(rows))
	pairs := f.pairs[:len(rows)]
	for j := 0; j < f.d; j++ {
		col := f.col(j)
		// A column constant over the node offers no split point.
		if constantOn(col, rows) {
			continue
		}
		for k, i := range rows {
			pairs[k] = sortPair{v: col[i], row: i}
		}
		sortPairs(pairs)

		var leftSum float64
		for k := 0; k < len(pairs)-1; k++ {
			leftSum += f.y[pairs[k].row]
			// Can't split between equal feature values. The pairs are
			// sorted ascending, so adjacent values are equal exactly when
			// the earlier one is not strictly smaller.
			if !(pairs[k].v < pairs[k+1].v) {
				continue
			}
			nl := k + 1
			if nl < f.minLeaf || len(pairs)-nl < f.minLeaf {
				continue
			}
			fl := float64(nl)
			fr := n - fl
			rightSum := sum - leftSum
			// SSE reduction = total SSE - (left SSE + right SSE); with
			// the Σy² term fixed this maximizes leftSum²/nl + rightSum²/nr.
			gain := leftSum*leftSum/fl + rightSum*rightSum/fr - sum*sum/n
			if gain > bestGain {
				bestGain = gain
				feat = j
				thr = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	return feat, thr
}

// partition reorders rows so those with feature feat <= thr come first,
// each side keeping its relative order, and returns how many went left.
func (f *treeFitter) partition(rows []int, feat int, thr float64) int {
	col := f.col(feat)
	spill := f.spill[:0]
	nl := 0
	for _, i := range rows {
		if col[i] <= thr {
			rows[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(rows[nl:], spill)
	return nl
}

// constantOn reports whether col holds one bit pattern over rows. Only then
// is every adjacent pair of the sorted column equal under <, so skipping the
// column cannot change the chosen split.
func constantOn(col []float64, rows []int) bool {
	first := math.Float64bits(col[rows[0]])
	for _, i := range rows[1:] {
		if math.Float64bits(col[i]) != first {
			return false
		}
	}
	return true
}

// maxTreeNodes bounds the node count of one tree of depth at most depth
// grown on rows rows: a full binary tree, and no more leaves than rows.
func maxTreeNodes(depth, rows int) int {
	if depth < 30 && 1<<(depth+1)-1 < 2*rows-1 {
		return 1<<(depth+1) - 1
	}
	return 2*rows - 1
}
