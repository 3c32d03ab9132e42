package nvm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mct/internal/config"
)

// smallParams returns fast-to-reason-about parameters: one write token and
// a relaxed quota so tests control exactly what happens.
func smallParams() Params {
	p := DefaultParams()
	p.MaxConcurrentWrites = 4
	return p
}

func mustNew(t *testing.T, cfg config.Config, p Params) *Controller {
	t.Helper()
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Banks = 0 },
		func(p *Params) { p.LinesPerBank = 0 },
		func(p *Params) { p.MemCyclesPerSec = 0 },
		func(p *Params) { p.EnduranceBase = 0 },
		func(p *Params) { p.WearLevelEff = 1.5 },
		func(p *Params) { p.WearCalibration = 0 },
		func(p *Params) { p.WriteQueueCap = 0 },
		func(p *Params) { p.DrainHigh = p.DrainLow - 1 },
		func(p *Params) { p.CancelProgressLimit = 2 },
		func(p *Params) { p.MaxConcurrentWrites = 0 },
		func(p *Params) { p.WearQuotaSliceCycles = 0 },
	}
	for i, mut := range bad {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate params", i)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(config.Config{FastLatency: 9}, DefaultParams()); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	p := DefaultParams()
	p.Banks = 0
	if _, err := New(config.Default(), p); err == nil {
		t.Fatal("invalid params must be rejected")
	}
}

func TestReadLatencyIdleBank(t *testing.T) {
	p := smallParams()
	c := mustNew(t, config.Default(), p)
	done := c.Read(0, 1000)
	want := uint64(1000) + p.TRCD + p.TCAS + p.TBurst
	if done != want {
		t.Fatalf("idle read done at %d, want %d", done, want)
	}
	st := c.Stats()
	if st.Reads != 1 || st.ReadLatencySum != p.TRCD+p.TCAS+p.TBurst {
		t.Fatalf("read stats wrong: %+v", st)
	}
}

func TestReadWaitsForUncancellableWrite(t *testing.T) {
	p := smallParams()
	c := mustNew(t, config.Default(), p) // no cancellation
	addr := uint64(0)
	c.Write(addr, 100)
	c.Advance(101) // issue the write
	st := c.Stats()
	if st.DemandWrites != 1 {
		t.Fatalf("write not issued: %+v", st)
	}
	// A read to the same bank mid-write must wait for the write.
	done := c.Read(addr, 120)
	writeDone := uint64(100) + p.TBurst + p.TWP // bus + 1× pulse
	if done < writeDone+p.TRCD+p.TCAS {
		t.Fatalf("read at %d finished before blocked bank freed (write done %d)", done, writeDone)
	}
	if c.Stats().CancelledWrites != 0 {
		t.Fatal("default config must not cancel")
	}
}

func TestReadCancelsCancellableWrite(t *testing.T) {
	p := smallParams()
	cfg := config.Default()
	cfg.FastCancellation = true
	cfg.SlowCancellation = true
	c := mustNew(t, cfg, p)
	addr := uint64(0)
	c.Write(addr, 100)
	c.Advance(101)
	// Read arrives early in the pulse: must cancel and start promptly.
	done := c.Read(addr, 115)
	want := uint64(115) + cancelAbortCycles + p.TRCD + p.TCAS + p.TBurst
	if done != want {
		t.Fatalf("cancelling read done at %d, want %d", done, want)
	}
	st := c.Stats()
	if st.CancelledWrites != 1 {
		t.Fatalf("cancellations = %d, want 1", st.CancelledWrites)
	}
	// The cancelled write re-queues and eventually completes, charging
	// wear twice (the "extra writes" penalty).
	c.Drain(c.Now())
	if got := c.Stats().DemandWrites; got != 2 {
		t.Fatalf("demand write issues = %d, want 2 (original + re-issue)", got)
	}
}

func TestCancelRespectsProgressLimit(t *testing.T) {
	p := smallParams()
	cfg := config.Default()
	cfg.FastCancellation = true
	cfg.SlowCancellation = true
	c := mustNew(t, cfg, p)
	c.Write(0, 100)
	c.Advance(101)
	// Pulse runs [108,168); at 160 progress is ~87% > 50%: no cancel.
	c.Read(0, 160)
	if c.Stats().CancelledWrites != 0 {
		t.Fatal("nearly-done write must not be cancelled")
	}
}

func TestMaxCancellationsBounded(t *testing.T) {
	p := smallParams()
	p.MaxCancellations = 2
	cfg := config.Default()
	cfg.FastCancellation = true
	cfg.SlowCancellation = true
	c := mustNew(t, cfg, p)
	c.Write(0, 100)
	now := uint64(101)
	c.Advance(now)
	cancels := uint64(0)
	for i := 0; i < 10; i++ {
		before := c.Stats().CancelledWrites
		now = c.Read(0, now+2)
		if c.Stats().CancelledWrites > before {
			cancels++
		}
	}
	if got := c.Stats().CancelledWrites; got > 2 {
		t.Fatalf("write cancelled %d times, cap is 2", got)
	}
	_ = cancels
}

func TestWriteQueueBackpressure(t *testing.T) {
	p := smallParams()
	p.WriteQueueCap = 4
	p.DrainLow = 2
	p.DrainHigh = 4
	c := mustNew(t, config.Default(), p)
	// Flood writes at the same instant; acceptance must eventually move
	// forward in time.
	var accepted uint64
	for i := 0; i < 64; i++ {
		accepted = c.Write(uint64(i*64), 100)
	}
	if accepted <= 100 {
		t.Fatalf("expected backpressure, last accepted at %d", accepted)
	}
	if c.Stats().QueueFullStalls == 0 {
		t.Fatal("queue-full stalls not recorded")
	}
	if c.Stats().WriteQueuePeak > p.WriteQueueCap {
		t.Fatalf("queue peak %d exceeded capacity %d", c.Stats().WriteQueuePeak, p.WriteQueueCap)
	}
}

func TestDrainCompletesAllWrites(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		c.Write(uint64(rng.Intn(4096))*64, uint64(i))
	}
	for i := 0; i < 50; i++ {
		c.EagerWrite(uint64(rng.Intn(4096))*64, 200)
	}
	c.Drain(300)
	if c.WriteQueueLen() != 0 || c.EagerQueueLen() != 0 {
		t.Fatalf("drain left %d demand + %d eager writes", c.WriteQueueLen(), c.EagerQueueLen())
	}
}

func TestWearQuadraticInRatio(t *testing.T) {
	p := smallParams()
	// Two controllers, identical write streams at 1× and 2×.
	fast := mustNew(t, config.Default(), p)
	slowCfg := config.Default()
	slowCfg.FastLatency = 2.0
	slowCfg.SlowLatency = 2.0
	slow := mustNew(t, slowCfg, p)
	for i := 0; i < 100; i++ {
		fast.Write(uint64(i)*64, uint64(i)*100)
		slow.Write(uint64(i)*64, uint64(i)*100)
	}
	fast.Drain(1 << 30)
	slow.Drain(1 << 30)
	wf, ws := fast.Stats().TotalWear, slow.Stats().TotalWear
	if wf <= 0 || ws <= 0 {
		t.Fatal("no wear recorded")
	}
	ratio := wf / ws
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("wear ratio 1x/2x = %v, want ~4 (endurance ∝ ratio²)", ratio)
	}
}

func TestLifetimeScalesWithWriteRate(t *testing.T) {
	p := smallParams()
	a := mustNew(t, config.Default(), p)
	b := mustNew(t, config.Default(), p)
	// b writes twice as often over the same elapsed time.
	for i := 0; i < 100; i++ {
		a.Write(uint64(i)*64, uint64(i)*1000)
		b.Write(uint64(i)*64, uint64(i)*1000)
		b.Write(uint64(i+1000)*64, uint64(i)*1000+500)
	}
	elapsed := uint64(100 * 1000)
	a.Drain(elapsed)
	b.Drain(elapsed)
	la, lb := a.LifetimeYears(elapsed), b.LifetimeYears(elapsed)
	if la <= lb {
		t.Fatalf("lifetime must fall with write rate: %v vs %v", la, lb)
	}
}

func TestLifetimeNoWrites(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	if got := c.LifetimeYears(1000); got != 1000 {
		t.Fatalf("zero-write lifetime = %v, want cap 1000", got)
	}
}

func TestBankAwareIssuesSlowWhenIdle(t *testing.T) {
	p := smallParams()
	cfg := config.Default()
	cfg.BankAware = true
	cfg.BankAwareThreshold = 1
	cfg.FastLatency = 1.0
	cfg.SlowLatency = 3.0
	c := mustNew(t, cfg, p)
	// A single isolated write: bank queue is empty → slow write.
	c.Write(0, 100)
	c.Drain(1 << 30)
	st := c.Stats()
	if st.SlowWrites != 1 || st.FastWrites != 0 {
		t.Fatalf("isolated write must be slow: %+v", st)
	}
	if st.WritesByRatio[3.0] != 1 {
		t.Fatalf("ratio accounting wrong: %v", st.WritesByRatio)
	}
}

// TestBankAwareSlowAtFastRatioCountsFast: a bank-aware slow write whose
// slow ratio equals the fast one is issued at FastLatency and counts as a
// fast write.
func TestBankAwareSlowAtFastRatioCountsFast(t *testing.T) {
	cfg := config.Default()
	cfg.BankAware = true
	cfg.BankAwareThreshold = 1
	cfg.FastLatency = 2.0
	cfg.SlowLatency = 2.0
	c := mustNew(t, cfg, smallParams())
	c.Write(0, 100)
	c.Drain(1 << 30)
	st := c.Stats()
	if st.FastWrites != 1 || st.SlowWrites != 0 || st.WritesByRatio[2.0] != 1 {
		t.Fatalf("slow write at the fast ratio must count as fast: %+v", st)
	}
}

func TestBankAwareIssuesFastUnderPressure(t *testing.T) {
	p := smallParams()
	cfg := config.Default()
	cfg.BankAware = true
	cfg.BankAwareThreshold = 1
	cfg.SlowLatency = 3.0
	c := mustNew(t, cfg, p)
	// Many writes to one bank at the same time: the queue builds, so
	// later writes must issue fast.
	for i := 0; i < 16; i++ {
		c.Write(0, 100) // same address → same bank
	}
	c.Drain(1 << 30)
	st := c.Stats()
	if st.FastWrites == 0 {
		t.Fatalf("queued bank must trigger fast writes: %+v", st)
	}
}

func TestEagerQueueCapacity(t *testing.T) {
	p := smallParams()
	p.EagerQueueCap = 2
	cfg := config.Default()
	cfg.EagerWritebacks = true
	cfg.EagerThreshold = 8
	c := mustNew(t, cfg, p)
	if !c.EagerSpace() {
		t.Fatal("fresh controller must have eager space")
	}
	// Stuff the eager queue while the banks are still busy elsewhere.
	ok1 := c.EagerWrite(0, 1)
	ok2 := c.EagerWrite(64, 1)
	_ = ok1
	_ = ok2
	// Depending on immediate issue, space may already have freed; force a
	// state where the queue is full by blocking the bank with a write.
	c2 := mustNew(t, cfg, p)
	c2.Write(0, 0)
	c2.Advance(1) // bank busy with demand write
	if !c2.EagerWrite(0, 1) || !c2.EagerWrite(0, 1) {
		t.Fatal("eager enqueue should succeed up to capacity")
	}
	if c2.EagerWrite(0, 1) {
		t.Fatal("eager enqueue beyond capacity must fail")
	}
	if c2.EagerSpace() {
		t.Fatal("EagerSpace must report full")
	}
}

func TestWearQuotaForcesSlowWrites(t *testing.T) {
	p := smallParams()
	p.WearQuotaSliceCycles = 1000
	cfg := config.Default()
	cfg.WearQuota = true
	cfg.WearQuotaTarget = 10 // demanding target
	// Shrink the memory so the quota is immediately binding.
	p.LinesPerBank = 1000
	c := mustNew(t, cfg, p)
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		now += 50
		c.Write(uint64(i)*64, now)
	}
	c.Drain(now + 1_000_000)
	st := c.Stats()
	if st.ForcedWrites == 0 || st.ForcedSlices == 0 {
		t.Fatalf("wear quota never forced: %+v", st)
	}
	if st.WritesByRatio[config.WearQuotaSlowRatio] == 0 {
		t.Fatal("forced writes must use the 4x ratio")
	}
}

// TestIdleSliceSkipMatchesWalk: one Advance across many idle wear-quota
// slices leaves the controller exactly as crossing them one boundary per
// Advance does, including the slice in which the forced flag turns off.
func TestIdleSliceSkipMatchesWalk(t *testing.T) {
	p := smallParams()
	p.WearQuotaSliceCycles = 1000
	p.LinesPerBank = 1000
	cfg := config.Default()
	cfg.WearQuota = true
	cfg.WearQuotaTarget = 10
	c := mustNew(t, cfg, p)
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		now += 50
		c.Write(uint64(i)*64, now)
	}
	for c.writeQLen+c.eagerQLen > 0 {
		now += p.WearQuotaSliceCycles / 3
		c.Advance(now)
	}
	if !c.forced {
		t.Fatal("quota not binding once the queues drained; the comparison is vacuous")
	}
	// Queue eager writes behind one bank: the first boundaries pass with
	// work queued, so Advance walks them before it may skip.
	for i := 0; i < p.EagerQueueCap; i++ {
		c.EagerWrite(uint64(i*p.Banks)*64, now)
	}
	if c.eagerQLen < 2 {
		t.Fatal("no eager write left queued")
	}
	walk, skip := c.Clone(), c.Clone()

	// Walk one boundary per Advance until the flag has been off for a while.
	start := walk.nextSlice
	offFor := 0
	for offFor < 100 {
		walk.Advance(walk.nextSlice)
		if walk.forced {
			offFor = 0
		} else {
			offFor++
		}
	}
	end := walk.now + p.WearQuotaSliceCycles/2
	walk.Advance(end)
	if n := (end - start) / p.WearQuotaSliceCycles; n < 1000 {
		t.Fatalf("only %d slices crossed; the skip is barely exercised", n)
	}

	skip.Advance(end)
	if !reflect.DeepEqual(walk.Snapshot(), skip.Snapshot()) {
		t.Errorf("skipped slices diverged from the walk:\nwalk: %+v\nskip: %+v", walk.Stats(), skip.Stats())
	}
}

func TestWearQuotaImprovesLifetime(t *testing.T) {
	p := smallParams()
	p.WearQuotaSliceCycles = 1000
	p.LinesPerBank = 2000
	run := func(wq bool) float64 {
		cfg := config.Default()
		cfg.WearQuota = wq
		cfg.WearQuotaTarget = 10
		c := mustNew(t, cfg, p)
		now := uint64(0)
		for i := 0; i < 3000; i++ {
			now += 40
			c.Write(uint64(i%512)*64, now)
		}
		end := c.Drain(now + 1000)
		return c.LifetimeYears(end)
	}
	without := run(false)
	with := run(true)
	if with <= without {
		t.Fatalf("wear quota must extend lifetime: %v vs %v", with, without)
	}
}

func TestSetConfigPreservesState(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	c.Write(0, 100)
	c.Drain(1 << 20)
	wearBefore := c.Stats().TotalWear
	if err := c.SetConfig(config.StaticBaseline()); err != nil {
		t.Fatal(err)
	}
	if c.Stats().TotalWear != wearBefore {
		t.Fatal("SetConfig must preserve wear state")
	}
	if c.Config().SlowLatency != 3.0 {
		t.Fatal("config not switched")
	}
	if err := c.SetConfig(config.Config{FastLatency: 99}); err == nil {
		t.Fatal("invalid config must be rejected")
	}

	// Write counts by ratio survive reconfiguration and a snapshot round
	// trip: ratios of earlier configurations keep theirs.
	c.Write(1<<20, 1<<21)
	c.Drain(1 << 30)
	if err := c.SetConfig(config.Config{FastLatency: 2.5, SlowLatency: 2.5}); err != nil {
		t.Fatal(err)
	}
	r, err := FromSnapshot(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, ctrl := range []*Controller{c, r} {
		ctrl.Write(2<<20, 1<<31)
		ctrl.Drain(1 << 32)
		want := map[float64]uint64{1.0: 1, 3.0: 1, 2.5: 1}
		if got := ctrl.Stats().WritesByRatio; !reflect.DeepEqual(got, want) {
			t.Errorf("writes by ratio = %v, want %v", got, want)
		}
	}
}

func TestWritePowerTokensSerializeWrites(t *testing.T) {
	p := smallParams()
	p.MaxConcurrentWrites = 1 // one pulse at a time
	c := mustNew(t, config.Default(), p)
	// Two writes to different banks at t=0: with one token, the second
	// pulse cannot overlap the first.
	c.Write(0, 0)
	c.Write(64, 0) // different bank under the XOR hash (adjacent lines)
	c.Drain(1 << 30)
	st := c.Stats()
	if st.DemandWrites != 2 {
		t.Fatalf("writes issued: %+v", st)
	}
	// Compare with a 2-token controller: total completion must be later
	// with 1 token. Measure via bank busy horizon.
	p2 := smallParams()
	p2.MaxConcurrentWrites = 2
	c2 := mustNew(t, config.Default(), p2)
	c2.Write(0, 0)
	c2.Write(64, 0)
	end1 := maxBankFree(c)
	end2 := maxBankFree(c2)
	if end1 <= end2 {
		t.Fatalf("serialized writes must finish later: 1-token end %d vs 2-token end %d", end1, end2)
	}
}

func maxBankFree(c *Controller) uint64 {
	var m uint64
	for i := range c.banks {
		if c.banks[i].freeAt > m {
			m = c.banks[i].freeAt
		}
	}
	return m
}

func TestAdvanceMonotonic(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	c.Advance(1000)
	c.Advance(500) // must not rewind
	if c.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", c.Now())
	}
}

// Property: controller counters are consistent under random traffic.
func TestRandomTrafficInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfgs := config.Enumerate(config.SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8})
		cfg := cfgs[rng.Intn(len(cfgs))]
		c, err := New(cfg, smallParams())
		if err != nil {
			return false
		}
		now := uint64(0)
		for i := 0; i < 1500; i++ {
			now += uint64(rng.Intn(100))
			addr := uint64(rng.Intn(1<<14)) * 64
			switch rng.Intn(3) {
			case 0:
				if done := c.Read(addr, now); done < now {
					return false
				}
			case 1:
				if acc := c.Write(addr, now); acc < now {
					return false
				}
			default:
				c.EagerWrite(addr, now)
			}
		}
		end := c.Drain(now)
		st := c.Stats()
		if c.WriteQueueLen() != 0 {
			return false
		}
		// Wear is non-negative everywhere and total ≈ sum of banks.
		var sum float64
		for _, w := range st.WearByBank {
			if w < 0 {
				return false
			}
			sum += w
		}
		if sum > 0 && (st.TotalWear <= 0 || st.TotalWear < sum*0.999 || st.TotalWear > sum*1.001) {
			return false
		}
		// Ratio histogram covers all issued writes.
		var byRatio uint64
		for _, n := range st.WritesByRatio {
			byRatio += n
		}
		if byRatio != st.DemandWrites+st.EagerWrites {
			return false
		}
		return c.LifetimeYears(end) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
