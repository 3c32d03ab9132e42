package ml

import (
	"math/rand"

	"mct/internal/rng"
)

// GBoostOptions configures the gradient-boosting ensemble.
type GBoostOptions struct {
	Trees     int     // number of boosting rounds
	Depth     int     // max tree depth
	Shrinkage float64 // learning rate
	Subsample float64 // stochastic row subsampling fraction (Friedman 2002)
	MinLeaf   int
	// Rand, when non-nil, is the injected subsampling source; otherwise
	// each Fit derives a fresh deterministic stream from Seed, so refits
	// with identical options reproduce identical ensembles.
	Rand *rand.Rand
	Seed int64
}

// DefaultGBoostOptions returns the configuration used by MCT's gradient
// boosting predictor.
func DefaultGBoostOptions() GBoostOptions {
	return GBoostOptions{Trees: 150, Depth: 3, Shrinkage: 0.1, Subsample: 0.8, MinLeaf: 2, Seed: 7}
}

// GBoost is stochastic gradient boosting with least-squares loss over
// regression trees (§4.3: "a state-of-art boosting algorithm for learning
// regression models"). For squared loss, each round fits a tree to the
// current residuals.
type GBoost struct {
	opt GBoostOptions
	// nodes holds every tree, tree after tree; roots[t] is the index of
	// tree t's root.
	nodes  []treeNode
	roots  []int
	bias   float64
	fitted bool
}

// NewGBoost returns a gradient-boosting predictor.
func NewGBoost(opt GBoostOptions) *GBoost {
	if opt.Trees <= 0 {
		opt.Trees = 100
	}
	if opt.Depth <= 0 {
		opt.Depth = 3
	}
	if opt.Shrinkage <= 0 || opt.Shrinkage > 1 {
		opt.Shrinkage = 0.1
	}
	if opt.Subsample <= 0 || opt.Subsample > 1 {
		opt.Subsample = 1
	}
	if opt.MinLeaf <= 0 {
		opt.MinLeaf = 1
	}
	return &GBoost{opt: opt}
}

// Name implements Predictor.
func (g *GBoost) Name() string { return NameGBoost }

// Fit implements Predictor.
func (g *GBoost) Fit(X [][]float64, y []float64) error {
	if err := checkData(X, y); err != nil {
		return err
	}
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

	sampleSize := int(g.opt.Subsample * float64(n))
	if sampleSize < 2 {
		sampleSize = n
	}

	resid := make([]float64, n)
	for i, v := range y {
		resid[i] = v - bias
	}
	f := newTreeFitter(X, resid, sampleSize, g.opt.Depth, g.opt.MinLeaf)
	nodes := make([]treeNode, 0, g.opt.Trees*maxTreeNodes(g.opt.Depth, sampleSize))
	roots := make([]int, g.opt.Trees)
	rows := make([]int, n)
	for t := range roots {
		if sampleSize < n {
			// r.Perm(n)[:sampleSize], drawn into the reused buffer: the
			// same Intn sequence as rand.Perm, whose result does not
			// depend on the buffer's previous contents.
			for i := range rows {
				j := r.Intn(i + 1)
				rows[i] = rows[j]
				rows[j] = i
			}
		} else {
			for i := range rows {
				rows[i] = i
			}
		}
		roots[t] = len(nodes)
		nodes = f.grow(nodes, rows[:sampleSize], 0)
		for i, x := range X {
			resid[i] -= g.opt.Shrinkage * leafValue(nodes, roots[t], x)
		}
	}
	g.nodes = nodes
	g.roots = roots
	g.bias = bias
	g.fitted = true
	return nil
}

// Predict implements Predictor.
func (g *GBoost) Predict(x []float64) float64 {
	if !g.fitted {
		return 0
	}
	s := g.bias
	for _, root := range g.roots {
		s += g.opt.Shrinkage * leafValue(g.nodes, root, x)
	}
	return s
}

// PredictRows sets out[i] to Predict(rows[i]) for every row; out must hold
// len(rows) entries. It walks the ensemble tree-outer, row-inner, so each
// tree's nodes stay in cache across the batch, while each row still sums
// bias + Σ shrinkage·leaf in tree order: every out[i] is bit-identical to
// Predict(rows[i]). It allocates nothing.
func (g *GBoost) PredictRows(rows [][]float64, out []float64) {
	out = out[:len(rows)]
	if !g.fitted {
		clear(out)
		return
	}
	for i := range out {
		out[i] = g.bias
	}
	for _, root := range g.roots {
		for i, x := range rows {
			out[i] += g.opt.Shrinkage * leafValue(g.nodes, root, x)
		}
	}
}
