package config

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultAndBaselineValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if err := StaticBaseline().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	b := StaticBaseline()
	if !b.BankAware || !b.EagerWritebacks || !b.WearQuota || b.SlowLatency != 3.0 {
		t.Fatalf("baseline fields wrong: %+v", b)
	}
}

func TestValidateRejectsIllegal(t *testing.T) {
	cases := []Config{
		{FastLatency: 0.5}, // fast too low
		{FastLatency: 5},   // fast too high
		{FastLatency: 2, SlowLatency: 1, BankAware: true, BankAwareThreshold: 1},                         // slow < fast
		{FastLatency: 1, SlowLatency: 2, BankAware: true, BankAwareThreshold: 9},                         // threshold range
		{FastLatency: 1, SlowLatency: 2, EagerWritebacks: true, EagerThreshold: 2},                       // eager range
		{FastLatency: 1, SlowLatency: 2, BankAware: true, BankAwareThreshold: 1, FastCancellation: true}, // fast canc without slow canc
		{FastLatency: 1, WearQuota: true, WearQuotaTarget: 0.5},                                          // wq target range
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%v) should be invalid", i, c)
		}
	}
}

func TestCanonicalZeroesDisabledParams(t *testing.T) {
	c := Config{
		FastLatency: 1.5, SlowLatency: 3,
		BankAwareThreshold: 3, EagerThreshold: 8, WearQuotaTarget: 8,
		SlowCancellation: true,
	}
	canon := c.Canonical()
	if canon.BankAwareThreshold != 0 || canon.EagerThreshold != 0 || canon.WearQuotaTarget != 0 {
		t.Fatalf("disabled params not zeroed: %+v", canon)
	}
	if canon.SlowLatency != canon.FastLatency || canon.SlowCancellation {
		t.Fatalf("slow-write params not normalized without slow techniques: %+v", canon)
	}
}

// Property: Canonical is idempotent.
func TestCanonicalIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		c := randomConfig(rand.New(rand.NewSource(seed)))
		once := c.Canonical()
		return once == once.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomConfig(rng *rand.Rand) Config {
	lat := func() float64 { return LatencyGrid[rng.Intn(len(LatencyGrid))] }
	c := Config{
		BankAware:          rng.Intn(2) == 0,
		BankAwareThreshold: 1 + rng.Intn(4),
		EagerWritebacks:    rng.Intn(2) == 0,
		EagerThreshold:     EagerThresholdGrid[rng.Intn(len(EagerThresholdGrid))],
		WearQuota:          rng.Intn(2) == 0,
		WearQuotaTarget:    4 + float64(rng.Intn(7)),
		FastLatency:        lat(),
		SlowLatency:        lat(),
		SlowCancellation:   rng.Intn(2) == 0,
	}
	if c.SlowLatency < c.FastLatency {
		c.FastLatency, c.SlowLatency = c.SlowLatency, c.FastLatency
	}
	if c.SlowCancellation && rng.Intn(2) == 0 {
		c.FastCancellation = true
	}
	return c
}

func TestVectorEncoding(t *testing.T) {
	// The paper's example vector (§4.1.1): bank-aware threshold 1, eager
	// threshold 32, no wear quota, latencies 1.5/3.0, slow cancellation.
	c := Config{
		BankAware: true, BankAwareThreshold: 1,
		EagerWritebacks: true, EagerThreshold: 32,
		FastLatency: 1.5, SlowLatency: 3.0,
		SlowCancellation: true,
	}
	want := []float64{1, 1, 1, 32, 0, 0, 1.5, 3.0, 0, 1}
	got := c.Vector()
	if len(got) != VectorLen {
		t.Fatalf("vector length %d, want %d", len(got), VectorLen)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vector[%d] = %v, want %v (%v)", i, got[i], want[i], got)
		}
	}
	if len(VectorNames()) != VectorLen {
		t.Fatal("VectorNames length mismatch")
	}
}

func TestCompressedEncoding(t *testing.T) {
	c := Config{
		BankAware: true, BankAwareThreshold: 3,
		EagerWritebacks: true, EagerThreshold: 4, // least eager → level 1
		FastLatency: 2, SlowLatency: 3,
		FastCancellation: true, SlowCancellation: true,
	}
	got := c.Compressed()
	want := []float64{3, 1, 2, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compressed[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if len(CompressedNames()) != CompressedLen {
		t.Fatal("CompressedNames length mismatch")
	}
	// Eager threshold 32 is the most eager level (§3.1).
	c.EagerThreshold = 32
	if c.Compressed()[1] != 4 {
		t.Fatalf("eager level for threshold 32 = %v, want 4", c.Compressed()[1])
	}
	// Disabled techniques encode as 0.
	d := Default()
	for i, v := range d.Compressed()[:2] {
		if v != 0 {
			t.Fatalf("default compressed[%d] = %v, want 0", i, v)
		}
	}
}

func TestString(t *testing.T) {
	s := StaticBaseline().String()
	for _, frag := range []string{"bank=T/1", "eager=T/32", "wq=T/8.0y", "lat=1.0/3.0"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

func TestEnumerateCounts(t *testing.T) {
	noWQ := Enumerate(SpaceOptions{})
	if len(noWQ) != 2030 {
		t.Fatalf("no-wq space size = %d, want 2030", len(noWQ))
	}
	full := Enumerate(SpaceOptions{IncludeWearQuota: true})
	if len(full) != 2*len(noWQ) {
		t.Fatalf("wq space size = %d, want %d", len(full), 2*len(noWQ))
	}

	// Case breakdown documented in DESIGN.md.
	count := func(cfgs []Config, keep func(Config) bool) int {
		n := 0
		for _, c := range cfgs {
			if keep(c) {
				n++
			}
		}
		return n
	}
	if n := count(noWQ, func(c Config) bool { return !c.BankAware && !c.EagerWritebacks }); n != 14 {
		t.Fatalf("neither case = %d, want 14", n)
	}
	if n := count(noWQ, func(c Config) bool { return c.BankAware && !c.EagerWritebacks }); n != 336 {
		t.Fatalf("bank-only case = %d, want 336", n)
	}
	if n := count(noWQ, func(c Config) bool { return !c.BankAware && c.EagerWritebacks }); n != 336 {
		t.Fatalf("eager-only case = %d, want 336", n)
	}
	if n := count(noWQ, func(c Config) bool { return c.BankAware && c.EagerWritebacks }); n != 1344 {
		t.Fatalf("both case = %d, want 1344", n)
	}
}

func TestEnumerateAllValid(t *testing.T) {
	for i, c := range Enumerate(SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8}) {
		if err := c.Validate(); err != nil {
			t.Fatalf("config %d invalid: %v (%v)", i, err, c)
		}
		if c.UsesSlowWrites() && c.SlowLatency < c.FastLatency {
			t.Fatalf("config %d: slow < fast", i)
		}
		if c.FastCancellation && !c.SlowCancellation && c.UsesSlowWrites() {
			t.Fatalf("config %d: illegal cancellation combo", i)
		}
	}
}

func TestEnumerateDeterministicAndUnique(t *testing.T) {
	a := Enumerate(SpaceOptions{IncludeWearQuota: true})
	b := Enumerate(SpaceOptions{IncludeWearQuota: true})
	if len(a) != len(b) {
		t.Fatal("non-deterministic enumeration size")
	}
	seen := map[[10]int16]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("enumeration differs at %d", i)
		}
		k := a[i].Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("duplicate configs at %d and %d: %v", prev, i, a[i])
		}
		seen[k] = i
	}
}

func TestSpaceIndexOf(t *testing.T) {
	s := NewSpace(SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8})
	for _, i := range []int{0, 1, 100, s.Len() - 1} {
		c := s.At(i)
		got, ok := s.IndexOf(c)
		if !ok || got != i {
			t.Fatalf("IndexOf(At(%d)) = %d,%v", i, got, ok)
		}
	}
	if _, ok := s.IndexOf(Config{FastLatency: 1.25, SlowLatency: 1.25}); ok {
		t.Fatal("off-grid config must not be found")
	}
	if got := len(s.Configs()); got != s.Len() {
		t.Fatalf("Configs() length %d != %d", got, s.Len())
	}
}

func TestSpaceFilterAndDistinct(t *testing.T) {
	s := NewSpace(SpaceOptions{})
	idx := s.Filter(func(c Config) bool { return c.FastLatency == 1.0 })
	if len(idx) == 0 {
		t.Fatal("filter found nothing")
	}
	for _, i := range idx {
		if s.At(i).FastLatency != 1.0 {
			t.Fatal("filter returned non-matching config")
		}
	}
	vals := s.DistinctValues(6) // fast_latency dimension
	if len(vals) != len(LatencyGrid) {
		t.Fatalf("distinct fast latencies = %v", vals)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatal("DistinctValues not sorted")
		}
	}
}

// TestSpaceVectors: the shared feature matrix is each configuration's
// Vector, in space order, and is built once however many goroutines ask
// for it at the same time (a cached sweep's space is shared by workers).
func TestSpaceVectors(t *testing.T) {
	s := NewSpace(SpaceOptions{IncludeWearQuota: true})
	const workers = 4
	got := make([][][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = s.Vectors()
			s.DistinctValues(w)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if &got[w][0][0] != &got[0][0][0] {
			t.Fatal("Vectors built more than once")
		}
	}
	rows := got[0]
	if len(rows) != s.Len() {
		t.Fatalf("%d rows for %d configurations", len(rows), s.Len())
	}
	for i, row := range rows {
		if !slices.Equal(row, s.At(i).Vector()) {
			t.Fatalf("row %d = %v, want %v", i, row, s.At(i).Vector())
		}
		if cap(row) != VectorLen {
			t.Fatalf("row %d has capacity %d: an append would write into row %d", i, cap(row), i+1)
		}
	}
}

func TestKeyQuantization(t *testing.T) {
	a := Config{FastLatency: 1.5, SlowLatency: 1.5}
	b := Config{FastLatency: 1.5 + 1e-9, SlowLatency: 1.5}
	if a.Key() != b.Key() {
		t.Fatal("keys must absorb float noise")
	}
	c := Config{FastLatency: 2.0, SlowLatency: 2.0}
	if a.Key() == c.Key() {
		t.Fatal("distinct configs must have distinct keys")
	}
}
