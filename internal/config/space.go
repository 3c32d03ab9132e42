package config

import (
	"sort"
	"sync"
)

// Grid values for the discretized configuration space. The paper reports
// 3,164 total configurations without giving the grids; with these grids the
// enumeration yields 4,060 (2,030 without wear quota) — same magnitude and
// structure (see DESIGN.md, "Known deviations").
var (
	// LatencyGrid holds the normalized write latency ratios explored for
	// both fast and slow writes (Tables 4/5/10 show multiples of 0.5).
	LatencyGrid = []float64{1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	// BankThresholdGrid holds bank_aware_threshold values (Table 3: [1,4]).
	BankThresholdGrid = []int{1, 2, 3, 4}
	// EagerThresholdGrid holds eager_threshold values (Table 3: [4,32];
	// Tables 4/5/10 show powers of two).
	EagerThresholdGrid = []int{4, 8, 16, 32}
)

// SpaceOptions controls enumeration of the configuration space.
type SpaceOptions struct {
	// IncludeWearQuota duplicates every configuration with wear quota
	// enabled at WearQuotaTarget. MCT excludes wear quota from its learning
	// space (§4.4) and re-adds it as a fixup.
	IncludeWearQuota bool
	// WearQuotaTarget is the target lifetime (years) used for wear-quota
	// configurations; 0 defaults to 8 (the paper's default objective).
	WearQuotaTarget float64
}

// Enumerate returns every legal configuration under the grids above and the
// structural constraints of §3.3.1:
//
//   - parameters are only enumerated for enabled techniques;
//   - slow_latency ≥ fast_latency (equality occurs in the paper's own ideal
//     configurations, Table 5);
//   - fast_cancellation ⇒ slow_cancellation, and cancellation choices only
//     exist where they are meaningful.
//
// The result is deterministic: configurations are produced in a fixed order.
func Enumerate(opt SpaceOptions) []Config {
	target := opt.WearQuotaTarget
	if target == 0 {
		target = 8
	}
	var out []Config

	emit := func(c Config) {
		c = c.Canonical()
		out = append(out, c)
		if opt.IncludeWearQuota {
			wq := c
			wq.WearQuota = true
			wq.WearQuotaTarget = target
			out = append(out, wq)
		}
	}

	// Case 1: no slow-write technique. Only fast parameters matter.
	for _, fl := range LatencyGrid {
		for _, fc := range []bool{false, true} {
			emit(Config{FastLatency: fl, SlowLatency: fl, FastCancellation: fc, SlowCancellation: fc})
		}
	}

	// Cancellation combinations legal when slow writes exist:
	// (fast, slow) ∈ {(F,F), (F,T), (T,T)}.
	canc := [][2]bool{{false, false}, {false, true}, {true, true}}

	// Cases 2–4: bank-aware only, eager only, both.
	for _, useBank := range []bool{false, true} {
		for _, useEager := range []bool{false, true} {
			if !useBank && !useEager {
				continue
			}
			bankThrs := []int{0}
			if useBank {
				bankThrs = BankThresholdGrid
			}
			eagerThrs := []int{0}
			if useEager {
				eagerThrs = EagerThresholdGrid
			}
			for _, bt := range bankThrs {
				for _, et := range eagerThrs {
					for _, fl := range LatencyGrid {
						for _, sl := range LatencyGrid {
							if sl < fl {
								continue
							}
							for _, cc := range canc {
								emit(Config{
									BankAware:          useBank,
									BankAwareThreshold: bt,
									EagerWritebacks:    useEager,
									EagerThreshold:     et,
									FastLatency:        fl,
									SlowLatency:        sl,
									FastCancellation:   cc[0],
									SlowCancellation:   cc[1],
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Space is an immutable, indexed view of an enumerated configuration space.
// It is safe for concurrent use.
type Space struct {
	configs []Config
	index   map[[10]int16]int

	// vectors is the feature matrix, built on first use: NewSpace runs on
	// setup paths that never predict.
	vectorsOnce sync.Once
	vectors     [][]float64
}

// NewSpace enumerates the space under opt and indexes it.
func NewSpace(opt SpaceOptions) *Space {
	cfgs := Enumerate(opt)
	s := &Space{configs: cfgs, index: make(map[[10]int16]int, len(cfgs))}
	for i, c := range cfgs {
		s.index[c.Key()] = i
	}
	return s
}

// Len returns the number of configurations in the space.
func (s *Space) Len() int { return len(s.configs) }

// At returns the configuration at index i.
func (s *Space) At(i int) Config { return s.configs[i] }

// Configs returns a copy of all configurations.
func (s *Space) Configs() []Config {
	out := make([]Config, len(s.configs))
	copy(out, s.configs)
	return out
}

// IndexOf returns the index of c in the space and whether it is present.
func (s *Space) IndexOf(c Config) (int, bool) {
	i, ok := s.index[c.Canonical().Key()]
	return i, ok
}

// Filter returns the indices of configurations satisfying keep, in order.
func (s *Space) Filter(keep func(Config) bool) []int {
	var idx []int
	for i, c := range s.configs {
		if keep(c) {
			idx = append(idx, i)
		}
	}
	return idx
}

// Vectors returns the Vector encoding of every configuration, in space
// order, as rows of one contiguous matrix. It is built once, on first use,
// and shared by every caller: callers must not modify it.
func (s *Space) Vectors() [][]float64 {
	s.vectorsOnce.Do(func() {
		flat := make([]float64, len(s.configs)*VectorLen)
		s.vectors = make([][]float64, len(s.configs))
		for i, c := range s.configs {
			row := flat[i*VectorLen : (i+1)*VectorLen : (i+1)*VectorLen]
			c.putVector(row)
			s.vectors[i] = row
		}
	})
	return s.vectors
}

// DistinctValues returns the sorted distinct values of the d-th dimension of
// the 10-dimensional vector encoding across the space. Useful for building
// stratified (feature-based) sample grids.
func (s *Space) DistinctValues(d int) []float64 {
	seen := map[float64]bool{}
	for _, v := range s.Vectors() {
		seen[v[d]] = true
	}
	vals := make([]float64, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	return vals
}
