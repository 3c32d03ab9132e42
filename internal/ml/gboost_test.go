package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mct/internal/config"
)

// spaceRows is the 2,030-configuration learning space as feature rows.
func spaceRows() [][]float64 {
	return config.NewSpace(config.SpaceOptions{}).Vectors()
}

// refDataset is one training set of the differential tests. Every set has
// config.VectorLen columns so the ensembles can also predict the space.
type refDataset struct {
	name string
	X    [][]float64
	y    []float64
}

// refDatasets builds the differential tests' training sets.
func refDatasets() []refDataset {
	space := spaceRows()
	r := rand.New(rand.NewSource(11))
	var sets []refDataset

	// Config-space rows with tie-heavy targets, as the runtime fits them:
	// 77 strided samples, few distinct feature values per column, and
	// targets that repeat.
	{
		var X [][]float64
		var y, z []float64
		for i := 0; i < 77; i++ {
			x := space[i*len(space)/77]
			X = append(X, x)
			y = append(y, x[6]+x[7])
			z = append(z, math.Round(4*(x[0]+x[2]*x[3]/8-x[6]/2))/4)
		}
		sets = append(sets, refDataset{"space-sum", X, y}, refDataset{"space-steps", X, z})
	}
	// Random floats: no ties at all.
	{
		X, y := randomSet(r, 90, -1, 0)
		sets = append(sets, refDataset{"random", X, y})
	}
	// Random rows with quantized values: ties within every column.
	{
		X, y := randomSet(r, 60, -1, 3)
		sets = append(sets, refDataset{"quantized", X, y})
	}
	// Constant columns (wear_quota and its target never vary in the
	// learning space) and an all-constant matrix.
	{
		X, y := randomSet(r, 50, -1, 0)
		for _, x := range X {
			x[4], x[5] = 0, 8
		}
		sets = append(sets, refDataset{"constant-cols", X, y})
		C, cy := randomSet(r, 20, 0, 0)
		sets = append(sets, refDataset{"all-constant", C, cy})
	}
	// Adjacent floats in one column: the midpoint threshold rounds onto
	// the upper value, so the partition's <= decides whether the split
	// separates anything.
	{
		X, y := adjacentSet(r, 40)
		sets = append(sets, refDataset{"adjacent-floats", X, y})
	}
	// Fewer rows than two minimum leaves: every tree is a single leaf.
	{
		X, y := randomSet(r, 3, -1, 0)
		sets = append(sets, refDataset{"n<2minleaf", X, y})
		X1, y1 := randomSet(r, 1, -1, 0)
		sets = append(sets, refDataset{"n=1", X1, y1})
	}
	return sets
}

// randomSet draws n rows of config.VectorLen features. With constCols ≥ 0
// every feature is that constant; with quant > 0 values are rounded to
// quant levels per unit.
func randomSet(r *rand.Rand, n int, constCols float64, quant float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, config.VectorLen)
		for j := range x {
			switch {
			case constCols >= 0:
				x[j] = constCols
			case quant > 0:
				x[j] = math.Round(r.NormFloat64()*quant) / quant
			default:
				x[j] = r.NormFloat64() * 2
			}
		}
		X[i] = x
		y[i] = r.NormFloat64() + x[1]*x[2]
	}
	return X, y
}

// adjacentSet is randomSet with feature 0 taking two adjacent float values
// and the target depending on it.
func adjacentSet(r *rand.Rand, n int) ([][]float64, []float64) {
	X, y := randomSet(r, n, -1, 2)
	next := math.Nextafter(1, 2)
	for i, x := range X {
		x[0] = 1
		if i%3 == 0 {
			x[0] = next
		}
		y[i] += 10 * float64(i%3)
	}
	return X, y
}

// checkMatchesReference fits GBoost and the reference on (X, y) under opt
// and fails unless Predict and PredictRows agree bit for bit with the
// reference on every row of each probe set.
func checkMatchesReference(t testing.TB, opt GBoostOptions, X [][]float64, y []float64, probes ...[][]float64) {
	t.Helper()
	var refRand *rand.Rand
	if opt.Rand != nil {
		// The two fits must draw the same stream: give the reference an
		// identical copy of the injected source.
		refRand = rand.New(rand.NewSource(opt.Seed))
		opt.Rand = rand.New(rand.NewSource(opt.Seed))
	}
	g := NewGBoost(opt)
	ropt := g.opt
	ropt.Rand = refRand
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	ref := fitReference(ropt, X, y)
	for _, rows := range append([][][]float64{X}, probes...) {
		out := make([]float64, len(rows))
		PredictRows(g, rows, out)
		for i, x := range rows {
			want := math.Float64bits(ref.Predict(x))
			if got := math.Float64bits(g.Predict(x)); got != want {
				t.Fatalf("row %d: Predict = %x, reference %x", i, got, want)
			}
			if got := math.Float64bits(out[i]); got != want {
				t.Fatalf("row %d: PredictRows = %x, reference %x", i, got, want)
			}
		}
	}
}

func TestGBoostMatchesReference(t *testing.T) {
	space := spaceRows()
	for _, ds := range refDatasets() {
		for _, sub := range []float64{1, 0.8} {
			for depth := 1; depth <= 5; depth++ {
				for _, injected := range []bool{false, true} {
					opt := GBoostOptions{Trees: 30, Depth: depth, Shrinkage: 0.1, Subsample: sub, MinLeaf: 2, Seed: 7}
					if injected {
						opt.Rand = rand.New(rand.NewSource(opt.Seed))
					}
					name := fmt.Sprintf("%s/sub=%g/depth=%d/rand=%v", ds.name, sub, depth, injected)
					t.Run(name, func(t *testing.T) {
						checkMatchesReference(t, opt, ds.X, ds.y, space)
					})
				}
			}
		}
		t.Run(ds.name+"/default", func(t *testing.T) {
			checkMatchesReference(t, DefaultGBoostOptions(), ds.X, ds.y, space)
		})
	}
}

// FuzzGBoostMatchesReference fits GBoost and the reference on generated
// data and requires bit-identical predictions on the training rows and on
// a probe set. The seed corpus mirrors TestGBoostMatchesReference's table.
func FuzzGBoostMatchesReference(f *testing.F) {
	// kind: 0 random, 1 quantized, 2 constant columns, 3 all constant,
	// 4 adjacent floats.
	for _, n := range []uint8{1, 3, 20, 77} {
		for kind := uint8(0); kind < 5; kind++ {
			f.Add(int64(n)*31+int64(kind), n, kind, uint8(3), uint8(80), uint8(2), false)
		}
	}
	f.Add(int64(5), uint8(60), uint8(1), uint8(5), uint8(100), uint8(1), true)
	f.Add(int64(9), uint8(40), uint8(0), uint8(1), uint8(50), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, n, kind, depth, subPct, minLeaf uint8, injected bool) {
		rows := int(n)%120 + 1
		r := rand.New(rand.NewSource(seed))
		var X [][]float64
		var y []float64
		switch kind % 5 {
		case 0:
			X, y = randomSet(r, rows, -1, 0)
		case 1:
			X, y = randomSet(r, rows, -1, float64(kind/5%4+1))
		case 2:
			X, y = randomSet(r, rows, -1, 2)
			for _, x := range X {
				x[4], x[5] = 0, 8
			}
		case 3:
			X, y = randomSet(r, rows, float64(kind), 0)
		default:
			X, y = adjacentSet(r, rows)
		}
		probe, _ := randomSet(r, 40, -1, 2)
		opt := GBoostOptions{
			Trees:     20,
			Depth:     int(depth)%6 + 1,
			Shrinkage: 0.1,
			Subsample: float64(subPct%101) / 100,
			MinLeaf:   int(minLeaf) % 5,
			Seed:      seed,
		}
		if injected {
			opt.Rand = rand.New(rand.NewSource(seed))
		}
		checkMatchesReference(t, opt, X, y, probe)
	})
}

// TestSortPairsMatchesSortSlice pins the specialised pdqsort to sort.Slice:
// the same permutation, ties included, across sizes that reach insertion
// sort, median-of-three, the ninther and pattern breaking.
func TestSortPairsMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	patterns := map[string]func(i, n int) float64{
		"random-ties": func(int, int) float64 { return float64(r.Intn(4)) },
		"few-ties":    func(int, int) float64 { return float64(r.Intn(1000)) },
		"all-equal":   func(int, int) float64 { return 1 },
		"ascending":   func(i, _ int) float64 { return float64(i / 3) },
		"descending":  func(i, n int) float64 { return float64((n - i) / 3) },
		"sawtooth":    func(i, _ int) float64 { return float64(i % 7) },
		"organ-pipe": func(i, n int) float64 {
			return float64(min(i, n-i) / 2)
		},
		"signed-zero-nan": func(int, int) float64 {
			return []float64{0, math.Copysign(0, -1), math.NaN(), 1}[r.Intn(4)]
		},
	}
	names := make([]string, 0, len(patterns))
	for name := range patterns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gen := patterns[name]
		for _, n := range []int{0, 1, 2, 5, 12, 13, 30, 49, 50, 77, 200, 1000, 5000} {
			want := make([]sortPair, n)
			for i := range want {
				want[i] = sortPair{v: gen(i, n), row: i}
			}
			got := append([]sortPair(nil), want...)
			sort.Slice(want, func(a, b int) bool { return want[a].v < want[b].v })
			sortPairs(got)
			for i := range got {
				if got[i].row != want[i].row {
					t.Fatalf("%s n=%d: position %d holds row %d, sort.Slice gives row %d", name, n, i, got[i].row, want[i].row)
				}
			}
		}
	}
}

// TestPredictRowsRowByRow: predictors without a batch path are predicted
// row by row, bit-identical to Predict.
func TestPredictRowsRowByRow(t *testing.T) {
	ds := refDatasets()[2]
	rows := spaceRows()
	for _, p := range []Predictor{NewLinear(0), NewQuadraticLasso(DefaultLassoLambda)} {
		if err := p.Fit(ds.X, ds.y); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(rows))
		PredictRows(p, rows, out)
		for i, x := range rows {
			if math.Float64bits(out[i]) != math.Float64bits(p.Predict(x)) {
				t.Fatalf("%s row %d: PredictRows %v, Predict %v", p.Name(), i, out[i], p.Predict(x))
			}
		}
	}
}

func TestGBoostPredictRowsZeroAllocs(t *testing.T) {
	ds := refDatasets()[0]
	g := NewGBoost(DefaultGBoostOptions())
	if err := g.Fit(ds.X, ds.y); err != nil {
		t.Fatal(err)
	}
	rows := spaceRows()
	out := make([]float64, len(rows))
	if a := testing.AllocsPerRun(5, func() { g.PredictRows(rows, out) }); a != 0 {
		t.Fatalf("GBoost.PredictRows allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(5, func() { PredictRows(g, rows, out) }); a != 0 {
		t.Fatalf("ml.PredictRows(GBoost) allocates %v times per call, want 0", a)
	}
}

// TestGBoostFitAllocsIndependentOfTrees pins Fit's allocations to its
// per-fit buffers: no allocation per tree or per node.
func TestGBoostFitAllocsIndependentOfTrees(t *testing.T) {
	ds := refDatasets()[0]
	allocs := func(trees int) float64 {
		opt := DefaultGBoostOptions()
		opt.Trees = trees
		g := NewGBoost(opt)
		return testing.AllocsPerRun(3, func() {
			if err := g.Fit(ds.X, ds.y); err != nil {
				t.Fatal(err)
			}
		})
	}
	a50, a150 := allocs(50), allocs(150)
	if a50 != a150 {
		t.Fatalf("Fit allocates %v times at 50 trees but %v at 150", a50, a150)
	}
	// The fitter and its buffers, nodes, roots, rows, residuals and the
	// seeded stream.
	if a150 > 8 {
		t.Fatalf("Fit allocates %v times, want ≤ 8", a150)
	}
}
