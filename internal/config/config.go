// Package config models the Mellow-Writes configuration space of the paper
// (§3.1, Tables 2–3): which techniques are enabled (bank-aware mellow
// writes, eager mellow writes, wear quota) and the aggressiveness parameters
// of each (latency ratios, thresholds, write cancellation). It provides the
// full legal enumeration of the space, the 10-dimensional vector encoding of
// §4.1.1, and the manually compressed 5-feature encoding of §4.4.
package config

import (
	"fmt"
	"math"
)

// Latency ratio bounds (Table 3): write pulse time is 150ns·ratio and
// endurance scales as ratio² (Table 9).
const (
	MinLatencyRatio = 1.0
	MaxLatencyRatio = 4.0
	// WearQuotaSlowRatio is the ratio enforced during an exhausted
	// wear-quota slice: "the whole coming time slice can only use the
	// slowest writes (in our implementation, 4×)".
	WearQuotaSlowRatio = 4.0
)

// Config is one point in the Mellow-Writes configuration space.
//
// The zero value is the paper's "default" system: no mellow-writes
// techniques, fast writes at 1× latency, no cancellation — except that the
// zero FastLatency is invalid, so use Default() instead of a zero literal.
type Config struct {
	// BankAware enables bank-aware mellow writes: a write is issued slow
	// when fewer than BankAwareThreshold requests for its bank sit in the
	// write queue.
	BankAware          bool
	BankAwareThreshold int

	// EagerWritebacks enables eager mellow writes: dirty LLC lines in
	// "useless" LRU stack positions (top-N positions contributing less than
	// 1/EagerThreshold of total hits) are written back early as slow writes
	// when the memory system is idle.
	EagerWritebacks bool
	EagerThreshold  int

	// WearQuota divides execution into slices with a wear budget derived
	// from WearQuotaTarget (years); once a slice's accumulated budget is
	// exhausted, all writes in the next slice are forced to the slowest
	// ratio with cancellation enforced.
	WearQuota       bool
	WearQuotaTarget float64

	// FastLatency and SlowLatency are normalized write latency ratios in
	// [1,4]; slow writes are used by the mellow-writes techniques and must
	// not be faster than fast writes.
	FastLatency float64
	SlowLatency float64

	// FastCancellation / SlowCancellation allow an incoming read to cancel
	// an in-flight fast/slow write to the same bank (the write re-queues,
	// costing extra wear). The space constrains FastCancellation ⇒
	// SlowCancellation (§3.3.1).
	FastCancellation bool
	SlowCancellation bool
}

// Default returns the paper's "default" configuration: no mellow-writes
// techniques, 1× fast writes, no cancellation (Table 5, row "default").
func Default() Config {
	return Config{FastLatency: 1.0, SlowLatency: 1.0}
}

// StaticBaseline returns the best static policy from prior work used as the
// paper's baseline (Table 5/10, row "baseline"/"static"): bank-aware with
// threshold 1, eager writebacks with threshold 32, wear quota at 8 years,
// 1× fast / 3× slow writes, cancellation on slow writes only.
func StaticBaseline() Config {
	return Config{
		BankAware:          true,
		BankAwareThreshold: 1,
		EagerWritebacks:    true,
		EagerThreshold:     32,
		WearQuota:          true,
		WearQuotaTarget:    8,
		FastLatency:        1.0,
		SlowLatency:        3.0,
		SlowCancellation:   true,
	}
}

// UsesSlowWrites reports whether any enabled technique can issue slow
// (mellow) writes at SlowLatency.
func (c Config) UsesSlowWrites() bool { return c.BankAware || c.EagerWritebacks }

// Validate checks the structural constraints of §3.3.1 and the parameter
// ranges of Table 3. Parameters belonging to disabled techniques are not
// checked (they are "meaningless and thus not considered").
func (c Config) Validate() error {
	if c.FastLatency < MinLatencyRatio || c.FastLatency > MaxLatencyRatio {
		return fmt.Errorf("config: fast_latency %.2f outside [%g,%g]", c.FastLatency, MinLatencyRatio, MaxLatencyRatio)
	}
	if c.UsesSlowWrites() {
		if c.SlowLatency < MinLatencyRatio || c.SlowLatency > MaxLatencyRatio {
			return fmt.Errorf("config: slow_latency %.2f outside [%g,%g]", c.SlowLatency, MinLatencyRatio, MaxLatencyRatio)
		}
		if c.SlowLatency < c.FastLatency {
			return fmt.Errorf("config: slow_latency %.2f < fast_latency %.2f", c.SlowLatency, c.FastLatency)
		}
		if c.FastCancellation && !c.SlowCancellation {
			return fmt.Errorf("config: fast_cancellation without slow_cancellation")
		}
	}
	if c.BankAware {
		if c.BankAwareThreshold < 1 || c.BankAwareThreshold > 4 {
			return fmt.Errorf("config: bank_aware_threshold %d outside [1,4]", c.BankAwareThreshold)
		}
	}
	if c.EagerWritebacks {
		if c.EagerThreshold < 4 || c.EagerThreshold > 32 {
			return fmt.Errorf("config: eager_threshold %d outside [4,32]", c.EagerThreshold)
		}
	}
	if c.WearQuota {
		if c.WearQuotaTarget < 1 || c.WearQuotaTarget > 20 {
			return fmt.Errorf("config: wear_quota_target %.1f outside [1,20] years", c.WearQuotaTarget)
		}
	}
	return nil
}

// Canonical returns c with the parameters of disabled techniques zeroed, so
// configurations that differ only in meaningless parameters compare equal.
func (c Config) Canonical() Config {
	if !c.BankAware {
		c.BankAwareThreshold = 0
	}
	if !c.EagerWritebacks {
		c.EagerThreshold = 0
	}
	if !c.WearQuota {
		c.WearQuotaTarget = 0
	}
	if !c.UsesSlowWrites() {
		c.SlowLatency = c.FastLatency
		c.SlowCancellation = false
	}
	return c
}

// String renders the configuration in the compact style of the paper's
// tables.
func (c Config) String() string {
	b1 := func(v bool) string {
		if v {
			return "T"
		}
		return "F"
	}
	ba, et, wq := "N/A", "N/A", "N/A"
	if c.BankAware {
		ba = fmt.Sprintf("%d", c.BankAwareThreshold)
	}
	if c.EagerWritebacks {
		et = fmt.Sprintf("%d", c.EagerThreshold)
	}
	if c.WearQuota {
		wq = fmt.Sprintf("%.1fy", c.WearQuotaTarget)
	}
	return fmt.Sprintf("bank=%s/%s eager=%s/%s wq=%s/%s lat=%.1f/%.1f canc=%s/%s",
		b1(c.BankAware), ba, b1(c.EagerWritebacks), et, b1(c.WearQuota), wq,
		c.FastLatency, c.SlowLatency, b1(c.FastCancellation), b1(c.SlowCancellation))
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// VectorLen is the dimensionality of the full configuration encoding
// (§4.1.1, Eq. 1).
const VectorLen = 10

// Vector returns the 10-dimensional encoding of §4.1.1:
//
//	[bank_aware, bank_aware_threshold, eager_writebacks, eager_threshold,
//	 wear_quota, wear_quota_target, fast_latency, slow_latency,
//	 fast_cancellation, slow_cancellation]
func (c Config) Vector() []float64 {
	v := make([]float64, VectorLen)
	c.putVector(v)
	return v
}

// putVector writes the Vector encoding into v (len VectorLen).
func (c Config) putVector(v []float64) {
	c = c.Canonical()
	_ = v[VectorLen-1]
	v[0], v[1] = b2f(c.BankAware), float64(c.BankAwareThreshold)
	v[2], v[3] = b2f(c.EagerWritebacks), float64(c.EagerThreshold)
	v[4], v[5] = b2f(c.WearQuota), c.WearQuotaTarget
	v[6], v[7] = c.FastLatency, c.SlowLatency
	v[8], v[9] = b2f(c.FastCancellation), b2f(c.SlowCancellation)
}

// VectorNames returns the feature names matching Vector indices.
func VectorNames() []string {
	return []string{
		"bank_aware", "bank_aware_threshold",
		"eager_writebacks", "eager_threshold",
		"wear_quota", "wear_quota_target",
		"fast_latency", "slow_latency",
		"fast_cancellation", "slow_cancellation",
	}
}

// CompressedLen is the dimensionality of the manually compressed feature
// encoding of §4.4.
const CompressedLen = 5

// Compressed returns the 5-feature encoding of §4.4, in which each
// technique's usage flag and aggressiveness parameter are merged:
//
//   - bank_aware: 0 (off) … 4 (threshold levels 1–4)
//   - eager_writebacks: 0 (off) or the eagerness level 1–4 for thresholds
//     {4,8,16,32} (a larger threshold is more eager, §3.1)
//   - fast_latency, slow_latency: the ratios
//   - cancellation: 0 (none), 1 (slow only), 2 (slow+fast)
//
// Wear quota is excluded, as in the paper's learning space.
func (c Config) Compressed() []float64 {
	c = c.Canonical()
	var bank float64
	if c.BankAware {
		bank = float64(c.BankAwareThreshold)
	}
	var eager float64
	if c.EagerWritebacks {
		switch {
		case c.EagerThreshold >= 32:
			eager = 4
		case c.EagerThreshold >= 16:
			eager = 3
		case c.EagerThreshold >= 8:
			eager = 2
		default:
			eager = 1
		}
	}
	var canc float64
	if c.SlowCancellation {
		canc = 1
	}
	if c.FastCancellation {
		canc = 2
	}
	return []float64{bank, eager, c.FastLatency, c.SlowLatency, canc}
}

// CompressedNames returns the feature names matching Compressed indices.
func CompressedNames() []string {
	return []string{"bank_aware", "eager_writebacks", "fast_latency", "slow_latency", "cancellation"}
}

// Key returns a canonical comparable identity for the configuration,
// suitable for use as a map key. Latency ratios are quantized to 1/100 so
// floating-point noise cannot split identical configurations.
func (c Config) Key() [10]int16 {
	v := c.Vector()
	var k [10]int16
	for i, x := range v {
		k[i] = int16(math.Round(x * 100))
	}
	return k
}
