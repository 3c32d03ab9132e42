// Package sim wires the substrates into a full system: a synthetic workload
// trace feeds the last-level cache; misses, writebacks and eager mellow
// writebacks flow into the NVM controller; a simple out-of-order core model
// converts memory latencies into stall cycles. Each run yields the three
// objectives MCT optimizes — IPC, lifetime (years) and system energy (J) —
// matching the tradeoff space of §4.1.2.
package sim

import (
	"fmt"

	"mct/internal/cache"
	"mct/internal/config"
	"mct/internal/dram"
	"mct/internal/energy"
	"mct/internal/hierarchy"
	"mct/internal/nvm"
	"mct/internal/rng"
	"mct/internal/stats"
	"mct/internal/trace"
)

// Options configures a simulated machine.
type Options struct {
	Params nvm.Params
	Energy energy.Model

	// LLC geometry (Table 8: 2 MB, 16-way for single core).
	CacheBytes int
	CacheWays  int

	// Core model. The core commits at 1/BaseCPI IPC when unstalled
	// (8-issue OoO), pays LLCHitCycles per L3 hit, and exposes a fraction
	// of each memory latency as stall: ReadStallFactor for load misses,
	// StoreStallFactor for store misses (stores retire under the miss;
	// only a fraction of the fill latency is exposed), and full stalls for
	// write-queue backpressure.
	BaseCPI          float64
	LLCHitCycles     float64
	ReadStallFactor  float64
	StoreStallFactor float64

	// CPUCyclesPerMemCycle couples the 2 GHz core to the 400 MHz
	// controller.
	CPUCyclesPerMemCycle float64

	// EagerScanSets bounds the per-access victim scan for eager mellow
	// writes.
	EagerScanSets int

	// Seed drives the workload generator.
	Seed int64

	// Tiers selects the memory-hierarchy composition: the stock machine is
	// LLC→NVM; Tiers.DRAMCache interposes the DRAM cache tier.
	Tiers config.TierConfig
	// DRAM parameterizes the DRAM cache tier (geometry, latency, hot-page
	// policy); ignored unless Tiers.DRAMCache. A zero value falls back to
	// dram.DefaultParams, and Tiers.DRAMPromoteThreshold, when positive,
	// overrides the promotion threshold.
	DRAM dram.Params
}

// DefaultOptions returns the Table 8/9 system.
func DefaultOptions() Options {
	return Options{
		Params:               nvm.DefaultParams(),
		Energy:               energy.Default(),
		CacheBytes:           2 << 20,
		CacheWays:            16,
		BaseCPI:              0.5,
		LLCHitCycles:         10,
		ReadStallFactor:      0.7,
		StoreStallFactor:     0.3,
		CPUCyclesPerMemCycle: 5,
		EagerScanSets:        32,
		Seed:                 1,
		DRAM:                 dram.DefaultParams(),
	}
}

// Validate checks option sanity.
func (o Options) Validate() error {
	if err := o.Params.Validate(); err != nil {
		return err
	}
	if err := o.Energy.Validate(); err != nil {
		return err
	}
	if o.CacheBytes <= 0 || o.CacheWays <= 0 {
		return fmt.Errorf("sim: invalid cache geometry %d/%d", o.CacheBytes, o.CacheWays)
	}
	if o.BaseCPI <= 0 || o.CPUCyclesPerMemCycle <= 0 {
		return fmt.Errorf("sim: invalid core model (CPI %g, ratio %g)", o.BaseCPI, o.CPUCyclesPerMemCycle)
	}
	if o.ReadStallFactor < 0 || o.ReadStallFactor > 1 || o.StoreStallFactor < 0 || o.StoreStallFactor > 1 {
		return fmt.Errorf("sim: stall factors must be in [0,1]")
	}
	if err := o.Tiers.Validate(); err != nil {
		return err
	}
	if o.Tiers.DRAMCache {
		if err := o.dramParams().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// dramParams resolves the effective DRAM tier parameters: the configured
// geometry (defaulted when zero) with the TierConfig promotion-threshold
// override applied.
func (o Options) dramParams() dram.Params {
	p := o.DRAM
	if p == (dram.Params{}) {
		p = dram.DefaultParams()
	}
	if o.Tiers.DRAMPromoteThreshold > 0 {
		p.PromoteThreshold = o.Tiers.DRAMPromoteThreshold
	}
	return p
}

// Metrics reports the objectives and supporting detail for a run or a
// window of a run.
type Metrics struct {
	Instructions uint64
	CPUCycles    float64
	IPC          float64

	Seconds       float64 // simulated wall time of the window
	LifetimeYears float64 // projected from the window's wear rate

	Energy  energy.Breakdown
	EnergyJ float64

	// Memory traffic in the window.
	MemReads  uint64
	MemWrites uint64 // demand + eager write issues

	// Technique activity in the window.
	EagerWrites     uint64
	CancelledWrites uint64
	ForcedWrites    uint64
	SlowWrites      uint64
	FastWrites      uint64
	QueueFullStalls uint64

	LLCHitRate float64
	// RowHitRate is the open-page hit rate of demand reads at the NVM.
	RowHitRate float64

	// DRAM tier activity in the window; all zero on NVM-only machines.
	// The raw counters (not just the rate) ride along so Accum can
	// re-aggregate windows exactly, including the tier's energy inputs.
	DRAMHits          uint64
	DRAMMisses        uint64
	DRAMWriteHits     uint64
	DRAMEagerAbsorbed uint64
	DRAMPromotions    uint64
	DRAMWritebacks    uint64
	// DRAMHitRate is the tier's demand-fill hit ratio for the window — the
	// learned hierarchy tradeoff dimension.
	DRAMHitRate float64

	// WearByBankDelta is the per-bank wear accrued in the window
	// (line-lifetimes); it allows windows of the same configuration to be
	// aggregated exactly (see Accum).
	WearByBankDelta []float64

	// Energy breakdown components needed to re-aggregate windows.
	WritesByRatio map[float64]uint64
}

// Vector returns [IPC, lifetime, energy] — the tradeoff-space encoding of
// §4.1.2.
func (m Metrics) Vector() [3]float64 { return [3]float64{m.IPC, m.LifetimeYears, m.EnergyJ} }

// Machine is a persistent simulated system: one or more cores, each
// running its own workload, in front of one shared LLC→(DRAM)→NVM
// hierarchy. It supports online reconfiguration (SetConfig) and windowed
// execution, which is what the MCT runtime drives during sampling and
// testing periods.
type Machine struct {
	opt Options
	// cores holds each core's workload and clock: one for NewMachine, one
	// per program of a multi-programmed mix for NewMultiMachine (§6.2.5).
	cores []coreState
	llc   *cache.Cache
	// dram is the optional DRAM cache tier (opt.Tiers.DRAMCache); nil on
	// the stock NVM-only hierarchy.
	dram *dram.Cache
	ctrl *nvm.Controller
	// mem is the topmost memory-side tier the LLC's misses flow into: the
	// DRAM tier when present, otherwise the controller. The step loop
	// drives the hierarchy through this seam only.
	mem hierarchy.Mem

	// window bookkeeping of the shared hierarchy (each core marks its own
	// clock)
	winStartStats nvm.Stats
	winStartCache cache.Stats
	winStartDRAM  dram.Stats

	// obsv is the optional observer (AttachObserver); nil means no
	// instrumentation and zero overhead.
	obsv *machineObs

	// batch is the machine's reusable scratch buffer for streaming runs:
	// allocated once on first use, refilled in place every iteration, never
	// shared (Clone drops it so clones allocate their own — a shared backing
	// array would race under concurrent evaluation). It is scratch, not
	// state: absent from MachineState, and its contents are meaningless
	// between runs.
	batch []trace.Access
}

// coreState is one core's private state: its workload generator, its clock
// and committed instructions, and both of those at the start of the
// current measurement window.
type coreState struct {
	gen            *trace.Generator
	cycles         float64
	insts          uint64
	winStartCycles float64
	winStartInsts  uint64
}

// StepBatchSize is the batch granularity of the streaming run loops: large
// enough to amortize per-batch overhead into noise, small enough that a
// machine's resident trace memory stays a fixed ~64 KB regardless of run
// length.
const StepBatchSize = 4096

// batchBuf returns the machine's scratch batch buffer, allocating it on
// first use.
func (m *Machine) batchBuf() []trace.Access {
	if m.batch == nil {
		m.batch = make([]trace.Access, StepBatchSize)
	}
	return m.batch
}

// NewMachine builds a single-core machine running spec under cfg.
func NewMachine(spec trace.Spec, cfg config.Config, opt Options) (*Machine, error) {
	return newMachine([]*trace.Generator{trace.NewGenerator(spec, rng.NewRand(opt.Seed))}, cfg, opt)
}

// DefaultMultiOptions returns the paper's 4-core system (§6.2.5):
// independent L1/L2 per core (abstracted into the per-core trace), a shared
// 8 MB LLC and an 8 GB, 32-bank resistive main memory.
func DefaultMultiOptions() Options {
	o := DefaultOptions()
	o.CacheBytes = 8 << 20
	o.Params.Banks = 32
	o.Params.LinesPerBank = 8 << 30 / 32 / 64
	// Shared-memory write-power budget scales with the larger module.
	o.Params.MaxConcurrentWrites = 8
	return o
}

// coreAddrStride separates per-core address spaces (16 GB apart).
const coreAddrStride = 1 << 34

// NewMultiMachine builds a multi-programmed machine under cfg: one core
// per spec, each with its own address space and random stream, sharing
// the hierarchy opt describes (DefaultMultiOptions is the paper's).
func NewMultiMachine(specs []trace.Spec, cfg config.Config, opt Options) (*Machine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: a multi-core machine needs at least one workload")
	}
	gens := make([]*trace.Generator, len(specs))
	for i, spec := range specs {
		gens[i] = trace.NewGeneratorAt(spec, rng.DeriveRand(opt.Seed, int64(i)), uint64(i)*coreAddrStride)
	}
	return newMachine(gens, cfg, opt)
}

// newMachine builds a machine with one core per generator.
func newMachine(gens []*trace.Generator, cfg config.Config, opt Options) (*Machine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	llc, err := cache.New(opt.CacheBytes, opt.CacheWays)
	if err != nil {
		return nil, err
	}
	ctrl, err := nvm.New(cfg, opt.Params)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		opt:   opt,
		cores: make([]coreState, len(gens)),
		llc:   llc,
		ctrl:  ctrl,
		mem:   ctrl,
	}
	for i, g := range gens {
		m.cores[i].gen = g
	}
	if opt.Tiers.DRAMCache {
		d, err := dram.New(opt.dramParams(), ctrl)
		if err != nil {
			return nil, err
		}
		m.dram = d
		m.mem = d
	}
	m.beginWindow()
	return m, nil
}

// Config returns the active configuration.
func (m *Machine) Config() config.Config { return m.ctrl.Config() }

// Options returns the machine's construction options.
func (m *Machine) Options() Options { return m.opt }

// SetConfig reconfigures the NVM controller in place.
func (m *Machine) SetConfig(cfg config.Config) error { return m.ctrl.SetConfig(cfg) }

// Instructions returns the instructions committed by all cores.
func (m *Machine) Instructions() uint64 {
	var n uint64
	for i := range m.cores {
		n += m.cores[i].insts
	}
	return n
}

// CPUCycles returns the elapsed CPU cycles of the most advanced core.
func (m *Machine) CPUCycles() float64 {
	var c float64
	for i := range m.cores {
		c = max(c, m.cores[i].cycles)
	}
	return c
}

// Controller exposes the NVM controller (diagnostics and tests).
func (m *Machine) Controller() *nvm.Controller { return m.ctrl }

// DRAM exposes the DRAM cache tier, nil on NVM-only machines
// (diagnostics and tests).
func (m *Machine) DRAM() *dram.Cache { return m.dram }

// Tiers returns the hierarchy's ordered tier pipeline, front (CPU side)
// first.
func (m *Machine) Tiers() []hierarchy.Tier {
	ts := make([]hierarchy.Tier, 0, 3)
	ts = append(ts, m.llc)
	if m.dram != nil {
		ts = append(ts, m.dram)
	}
	return append(ts, m.ctrl)
}

// SetPromoteThreshold retunes the DRAM tier's hot-page promotion
// threshold online; errors on NVM-only machines.
func (m *Machine) SetPromoteThreshold(n int) error {
	if m.dram == nil {
		return fmt.Errorf("sim: machine has no DRAM tier")
	}
	return m.dram.SetPromoteThreshold(n)
}

// dramStats returns the DRAM tier's counters, zero on NVM-only machines.
func (m *Machine) dramStats() dram.Stats {
	if m.dram == nil {
		return dram.Stats{}
	}
	return m.dram.Stats()
}

func (m *Machine) beginWindow() {
	for i := range m.cores {
		c := &m.cores[i]
		c.winStartCycles = c.cycles
		c.winStartInsts = c.insts
	}
	m.winStartStats = m.ctrl.Stats()
	m.winStartCache = m.llc.Stats()
	m.winStartDRAM = m.dramStats()
}

// memNow is core c's clock in memory cycles.
func (m *Machine) memNow(c *coreState) uint64 {
	return uint64(c.cycles / m.opt.CPUCyclesPerMemCycle)
}

// step executes one trace access on core c. It is the simulator's inner
// loop: the hotpath directive below makes every function it reaches
// subject to the allochot allocation audit.
//
//mctlint:hotpath
func (m *Machine) step(c *coreState, a trace.Access) {
	o := &m.opt
	c.cycles += float64(a.InstGap) * o.BaseCPI
	c.insts += uint64(a.InstGap)

	res := m.llc.Access(a.Addr, a.Write)
	if res.Hit {
		c.cycles += o.LLCHitCycles
	} else {
		now := m.memNow(c)
		if res.Writeback {
			accepted := m.mem.Write(res.WritebackAddr, now)
			if accepted > now {
				// Write-queue backpressure fully stalls the core.
				c.cycles += float64(accepted-now) * o.CPUCyclesPerMemCycle
				now = accepted
			}
		}
		done := m.mem.Read(res.FillAddr, now)
		latCPU := float64(done-now) * o.CPUCyclesPerMemCycle
		if a.Write {
			c.cycles += latCPU * o.StoreStallFactor
		} else {
			c.cycles += latCPU * o.ReadStallFactor
		}
	}

	// Eager mellow writes: harvest at most one dirty victim per access
	// when the technique is on and the hierarchy has room (§3.1).
	cfg := m.ctrl.Config()
	if cfg.EagerWritebacks && m.mem.EagerSpace() {
		useless := m.llc.UselessPositions(cfg.EagerThreshold)
		if useless > 0 {
			if addr, ok := m.llc.NextEagerVictim(useless, o.EagerScanSets); ok {
				m.mem.EagerWrite(addr, m.memNow(c))
			}
		}
	}
}

// next is the core scheduler: the least-advanced core steps next (the
// lowest index on ties), so cores advance in near-lockstep and the shared
// hierarchy sees their accesses in clock order. With one core it is
// always core 0.
func (m *Machine) next() *coreState {
	c := &m.cores[0]
	for i := 1; i < len(m.cores); i++ {
		if m.cores[i].cycles < c.cycles {
			c = &m.cores[i]
		}
	}
	return c
}

// StepBatch executes a batch of trace accesses on core 0. It is the
// batched inner loop of streaming simulation — together with
// trace.Source.Fill it forms the steady-state hot path, which must stay
// allocation-free.
//
//mctlint:hotpath
func (m *Machine) StepBatch(batch []trace.Access) {
	c := &m.cores[0]
	for i := range batch {
		m.step(c, batch[i])
	}
}

// runOwn steps n accesses from the cores' own generators. A single core
// streams its generator through the reusable batch buffer — byte-identical
// to n individual gen.Next/step pairs (the Fill batch-size-invariance
// contract). Several cores step one access at a time, as the scheduler
// picks them.
func (m *Machine) runOwn(n int) {
	if len(m.cores) > 1 {
		for ; n > 0; n-- {
			c := m.next()
			m.step(c, c.gen.Next())
		}
		return
	}
	buf := m.batchBuf()
	for n > 0 {
		k := len(buf)
		if k > n {
			k = n
		}
		m.cores[0].gen.Fill(buf[:k])
		m.StepBatch(buf[:k])
		n -= k
	}
}

// runSource streams src to exhaustion through core 0 via the reusable
// batch buffer.
func (m *Machine) runSource(src trace.Source) {
	buf := m.batchBuf()
	for {
		k := src.Fill(buf)
		if k == 0 {
			return
		}
		m.StepBatch(buf[:k])
	}
}

// RunAccesses executes n trace accesses and returns the metrics of that
// window.
func (m *Machine) RunAccesses(n int) Metrics {
	m.beginWindow()
	m.runOwn(n)
	return m.windowMetrics()
}

// RunSource streams src to exhaustion through the machine — in reusable
// batches, so memory stays O(StepBatchSize) however long the stream — and
// returns the metrics of that window.
func (m *Machine) RunSource(src trace.Source) Metrics {
	m.beginWindow()
	m.runSource(src)
	return m.windowMetrics()
}

// RunInstructions executes trace accesses until at least n instructions
// have committed in this window, returning the window metrics. It steps
// per-access rather than batched: the stop condition depends on each
// access's instruction gap, and prefetching a batch would advance the
// generator past the window boundary, perturbing where the next window
// starts.
func (m *Machine) RunInstructions(n uint64) Metrics {
	m.beginWindow()
	m.StepInstructions(n)
	return m.windowMetrics()
}

// StepInstructions executes trace accesses until the cores have committed
// at least n more instructions in total, without touching window
// accounting. The scheduler picks the core of each access, so every core
// contributes in proportion to its speed. Because the stop condition is a
// target instruction count and stepping is per-access, splitting a run
// into chunks steps the identical access stream as one straight run to the
// same target (each chunk asking for what remains of it). Combined with
// checkpoints — window-start markers ride MachineState — this is what lets
// a resumed run finish byte-identical to an uninterrupted one.
func (m *Machine) StepInstructions(n uint64) {
	target := m.Instructions() + n
	for m.Instructions() < target {
		c := m.next()
		m.step(c, c.gen.Next())
	}
}

// WindowMetrics returns the metrics of the current measurement window (since
// the last beginWindow — e.g. the one opened by Warmup) without ending it.
func (m *Machine) WindowMetrics() Metrics { return m.windowMetrics() }

// WindowInstructions returns the instructions committed in the current
// measurement window. A resumed run uses it to compute how many
// instructions of its target remain.
func (m *Machine) WindowInstructions() uint64 {
	var n uint64
	for i := range m.cores {
		n += m.cores[i].insts - m.cores[i].winStartInsts
	}
	return n
}

// windowCoreIPC returns each core's IPC over the current window, 0 for a
// core that has not run in it.
func (m *Machine) windowCoreIPC() []float64 {
	ipc := make([]float64, len(m.cores))
	for i := range m.cores {
		c := &m.cores[i]
		if dC := c.cycles - c.winStartCycles; dC > 0 {
			ipc[i] = float64(c.insts-c.winStartInsts) / dC
		}
	}
	return ipc
}

// windowMetrics computes metrics for the current window (since the last
// beginWindow) without ending it. The window's wall clock is the slowest
// core's cycle delta. With several cores, IPC is the geometric mean of the
// per-core IPCs (the paper's multi-program performance measure), and
// CPUCycles is rescaled so that Instructions/CPUCycles equals it: an
// Accum over such windows then reproduces an instruction-weighted
// blend of the geomean, not a throughput that is ~cores× larger.
func (m *Machine) windowMetrics() Metrics {
	o := &m.opt
	s0, llc0, d0 := m.winStartStats, m.winStartCache, m.winStartDRAM
	s1, llc1, d1 := m.ctrl.Stats(), m.llc.Stats(), m.dramStats()
	if m.obsv != nil {
		m.obsv.publish(llc1, s1, d1, true)
	}

	var dCycles float64
	var dInsts uint64
	for i := range m.cores {
		c := &m.cores[i]
		dCycles = max(dCycles, c.cycles-c.winStartCycles)
		dInsts += c.insts - c.winStartInsts
	}
	seconds := dCycles / o.CPUCyclesPerMemCycle / o.Params.MemCyclesPerSec

	var mt Metrics
	mt.Instructions = dInsts
	mt.CPUCycles = dCycles
	if len(m.cores) == 1 {
		if dCycles > 0 {
			mt.IPC = float64(dInsts) / dCycles
		}
	} else {
		// Cores that executed nothing in the window (e.g. still recovering
		// from a long stall that overshot it) have undefined performance
		// here, not zero: leaving them out keeps the geomean meaningful
		// for short windows.
		var active []float64
		for _, ipc := range m.windowCoreIPC() {
			if ipc > 0 {
				active = append(active, ipc)
			}
		}
		mt.IPC = stats.GeoMean(active)
		if mt.IPC > 0 {
			mt.CPUCycles = float64(dInsts) / mt.IPC
		}
	}
	mt.Seconds = seconds

	// Lifetime from the window's per-bank wear deltas.
	wearDelta := make([]float64, len(s1.WearByBank))
	var maxWear float64
	for b, w1 := range s1.WearByBank {
		d := w1 - s0.WearByBank[b]
		wearDelta[b] = d
		if d > maxWear {
			maxWear = d
		}
	}
	mt.WearByBankDelta = wearDelta
	budget := float64(o.Params.LinesPerBank) * o.Params.WearLevelEff
	if maxWear <= 0 || seconds <= 0 {
		mt.LifetimeYears = 1000
	} else {
		mt.LifetimeYears = seconds * budget / maxWear / nvm.SecondsPerYear
		if mt.LifetimeYears > 1000 {
			mt.LifetimeYears = 1000
		}
	}

	dst := diffStats(s0, s1)
	if rh, rm := dst.RowHits, dst.RowMisses; rh+rm > 0 {
		mt.RowHitRate = float64(rh) / float64(rh+rm)
	}
	mt.MemReads = dst.Reads
	mt.MemWrites = dst.DemandWrites + dst.EagerWrites
	mt.EagerWrites = dst.EagerWrites
	mt.CancelledWrites = dst.CancelledWrites
	mt.ForcedWrites = dst.ForcedWrites
	mt.SlowWrites = dst.SlowWrites
	mt.FastWrites = dst.FastWrites
	mt.QueueFullStalls = dst.QueueFullStalls

	// CPU static power scales with the core count.
	em := o.Energy
	em.CPUStaticPower *= float64(len(m.cores))
	if m.dram != nil {
		dd := diffDRAM(d0, d1)
		mt.DRAMHits = dd.Hits
		mt.DRAMMisses = dd.Misses
		mt.DRAMWriteHits = dd.WriteHits
		mt.DRAMEagerAbsorbed = dd.EagerAbsorbed
		mt.DRAMPromotions = dd.Promotions
		mt.DRAMWritebacks = dd.Writebacks
		mt.DRAMHitRate = dd.HitRate()
		mt.Energy = em.ComputeTiered(dInsts, seconds, dst, dramReads(dd), dramWrites(dd))
	} else {
		mt.Energy = em.Compute(dInsts, seconds, dst)
	}
	mt.EnergyJ = mt.Energy.Total()
	mt.WritesByRatio = dst.WritesByRatio

	hits := llc1.Hits - llc0.Hits
	total := hits + (llc1.Misses - llc0.Misses)
	if total > 0 {
		mt.LLCHitRate = float64(hits) / float64(total)
	}
	return mt
}

// diffDRAM returns s1-s0 (all fields are monotone counters).
func diffDRAM(s0, s1 dram.Stats) dram.Stats {
	return dram.Stats{
		Hits:          s1.Hits - s0.Hits,
		Misses:        s1.Misses - s0.Misses,
		WriteHits:     s1.WriteHits - s0.WriteHits,
		WriteMisses:   s1.WriteMisses - s0.WriteMisses,
		EagerAbsorbed: s1.EagerAbsorbed - s0.EagerAbsorbed,
		Promotions:    s1.Promotions - s0.Promotions,
		Writebacks:    s1.Writebacks - s0.Writebacks,
		DrainFlushes:  s1.DrainFlushes - s0.DrainFlushes,
	}
}

// dramReads/dramWrites map tier counters to DRAM array accesses for the
// energy model: reads are tier-serviced fills; writes are absorbed LLC
// writebacks (demand + eager) plus line installs.
func dramReads(d dram.Stats) uint64 { return d.Hits }
func dramWrites(d dram.Stats) uint64 {
	return d.WriteHits + d.EagerAbsorbed + d.Promotions
}

// diffStats returns s1-s0 for the counters used by metrics/energy.
func diffStats(s0, s1 nvm.Stats) nvm.Stats {
	d := nvm.Stats{
		Reads:           s1.Reads - s0.Reads,
		RowHits:         s1.RowHits - s0.RowHits,
		RowMisses:       s1.RowMisses - s0.RowMisses,
		ReadLatencySum:  s1.ReadLatencySum - s0.ReadLatencySum,
		DemandWrites:    s1.DemandWrites - s0.DemandWrites,
		EagerWrites:     s1.EagerWrites - s0.EagerWrites,
		FastWrites:      s1.FastWrites - s0.FastWrites,
		SlowWrites:      s1.SlowWrites - s0.SlowWrites,
		ForcedWrites:    s1.ForcedWrites - s0.ForcedWrites,
		CancelledWrites: s1.CancelledWrites - s0.CancelledWrites,
		QueueFullStalls: s1.QueueFullStalls - s0.QueueFullStalls,
		WritesByRatio:   make(map[float64]uint64),
	}
	for r, n1 := range s1.WritesByRatio {
		if n0 := s0.WritesByRatio[r]; n1 > n0 {
			d.WritesByRatio[r] = n1 - n0
		}
	}
	return d
}

// finishRun drains the memory hierarchy — dirty DRAM-tier lines flush to
// NVM, then queued writes retire — so their wear and energy are charged
// to the run. The drain starts at the most advanced core's clock, and
// every core's clock then catches up to where it ends.
func (m *Machine) finishRun() {
	clock := m.CPUCycles()
	final := m.mem.Drain(uint64(clock / m.opt.CPUCyclesPerMemCycle))
	clock = max(clock, float64(final)*m.opt.CPUCyclesPerMemCycle)
	for i := range m.cores {
		m.cores[i].cycles = max(m.cores[i].cycles, clock)
	}
}

// settleHierarchy flushes the DRAM tier's warmup-accrued dirty set (and
// the controller queue behind it) so measurement windows drain only their
// own writes — without this, the first window after warmup would be
// charged the whole warmup's dirty-set writeback storm. NVM-only machines
// are untouched: their only buffered state is the bounded write queue,
// whose end-of-window drain is part of the measured cost.
func (m *Machine) settleHierarchy() {
	if m.dram == nil {
		return
	}
	m.finishRun()
}

// EvaluateSource streams src to exhaustion on a fresh machine under cfg and
// returns the run metrics (with queued writes drained so their wear and
// energy are charged). This is the streaming core every evaluation
// entrypoint reduces to: memory stays O(StepBatchSize) regardless of stream
// length, so multi-billion-access runs are memory-bounded.
func EvaluateSource(src trace.Source, spec trace.Spec, cfg config.Config, opt Options) (Metrics, error) {
	m, err := NewMachine(spec, cfg, opt)
	if err != nil {
		return Metrics{}, err
	}
	m.beginWindow()
	m.runSource(src)
	m.finishRun()
	return m.windowMetrics(), nil
}

// Evaluate streams nAccesses of the named benchmark (seeded by opt.Seed)
// through a fresh machine under cfg. The stream is generated incrementally
// — a thin wrapper over EvaluateSource, producing the byte-identical
// metrics the old materialize-then-replay path did, in O(batch) memory.
func Evaluate(benchmark string, nAccesses int, cfg config.Config, opt Options) (Metrics, error) {
	spec, err := trace.ByName(benchmark)
	if err != nil {
		return Metrics{}, err
	}
	src := trace.Limit(trace.NewGenerator(spec, rng.NewRand(opt.Seed)), nAccesses)
	return EvaluateSource(src, spec, cfg, opt)
}
