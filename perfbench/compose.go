package main

// The recording composition: the benchmark's own wiring of the simulator's
// layers through their public calls, in the same order as sim.Machine.step
// (Fill → cache.Access → Mem.Write/Read → eager harvest). While it steps it
// records each layer's input stream, so replay.go can replay one layer
// alone on a clone of its state at the start of the recording.

import (
	"fmt"
	"time"

	"mct/internal/cache"
	"mct/internal/config"
	"mct/internal/dram"
	"mct/internal/hierarchy"
	"mct/internal/nvm"
	"mct/internal/rng"
	"mct/internal/sim"
	"mct/internal/trace"
)

// Kinds of recorded calls.
const (
	opAccess  uint8 = iota // cache.Access(addr, write)
	opUseless              // cache.UselessPositions(thr) → ret
	opVictim               // cache.NextEagerVictim(n, maxSets) → ret, ok
	opRead                 // Mem.Read(addr, now) → ret
	opWrite                // Mem.Write(addr, now) → ret
	opEager                // Mem.EagerWrite(addr, now) → ok
	opSpace                // Mem.EagerSpace() → ok
	opDrain                // Mem.Drain(now) → ret
	opConfig               // Controller.SetConfig(configs[arg])
)

// call is one recorded layer call with its arguments and response.
type call struct {
	kind  uint8
	write bool // opAccess: store; opEager/opSpace/opVictim: the bool response
	arg   int  // opUseless: threshold; opVictim: useless positions; opConfig: index
	addr  uint64
	now   uint64
	ret   uint64
}

// recMem records every call into the tier below it.
type recMem struct {
	next  hierarchy.Mem
	calls []call
	on    bool
}

func (r *recMem) Name() string { return r.next.Name() }

func (r *recMem) Read(addr, now uint64) uint64 {
	v := r.next.Read(addr, now)
	if r.on {
		//mctlint:ignore allochot recMem wraps a tier only in the recording composition, never in a sim.Machine; the growing record is its purpose
		r.calls = append(r.calls, call{kind: opRead, addr: addr, now: now, ret: v})
	}
	return v
}

func (r *recMem) Write(addr, now uint64) uint64 {
	v := r.next.Write(addr, now)
	if r.on {
		//mctlint:ignore allochot recMem wraps a tier only in the recording composition, never in a sim.Machine; the growing record is its purpose
		r.calls = append(r.calls, call{kind: opWrite, addr: addr, now: now, ret: v})
	}
	return v
}

func (r *recMem) EagerWrite(addr, now uint64) bool {
	ok := r.next.EagerWrite(addr, now)
	if r.on {
		//mctlint:ignore allochot recMem wraps a tier only in the recording composition, never in a sim.Machine; the growing record is its purpose
		r.calls = append(r.calls, call{kind: opEager, addr: addr, now: now, write: ok})
	}
	return ok
}

func (r *recMem) EagerSpace() bool {
	ok := r.next.EagerSpace()
	if r.on {
		//mctlint:ignore allochot recMem wraps a tier only in the recording composition, never in a sim.Machine; the growing record is its purpose
		r.calls = append(r.calls, call{kind: opSpace, write: ok})
	}
	return ok
}

func (r *recMem) Drain(now uint64) uint64 {
	v := r.next.Drain(now)
	if r.on {
		//mctlint:ignore allochot recMem wraps a tier only in the recording composition, never in a sim.Machine; the growing record is its purpose
		r.calls = append(r.calls, call{kind: opDrain, now: now, ret: v})
	}
	return v
}

// composition mirrors sim.Machine: a generator feeding the LLC, whose
// misses flow into the memory-side tiers (optionally DRAM, then NVM).
type composition struct {
	opt  sim.Options
	gen  *trace.Generator
	llc  *cache.Cache
	dram *dram.Cache // nil on the NVM-only hierarchy
	ctrl *nvm.Controller
	top  *recMem // records the input of the first memory-side tier
	bot  *recMem // records the input of the NVM controller (== top without DRAM)

	cpuCycles float64
	insts     uint64

	recording bool
	llcCalls  []call
	configs   []config.Config // opConfig arguments
	accesses  int             // accesses stepped while recording
	buf       []trace.Access
}

// dramParams resolves the DRAM tier parameters the way sim.Options does.
func dramParams(o sim.Options) dram.Params {
	p := o.DRAM
	if p == (dram.Params{}) {
		p = dram.DefaultParams()
	}
	if o.Tiers.DRAMPromoteThreshold > 0 {
		p.PromoteThreshold = o.Tiers.DRAMPromoteThreshold
	}
	return p
}

// newComposition builds the layers sim.NewMachine would build.
func newComposition(spec trace.Spec, cfg config.Config, opt sim.Options) (*composition, error) {
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
	c := &composition{
		opt:  opt,
		gen:  trace.NewGenerator(spec, rng.NewRand(opt.Seed)),
		llc:  llc,
		ctrl: ctrl,
		bot:  &recMem{next: ctrl},
	}
	c.top = c.bot
	if opt.Tiers.DRAMCache {
		d, err := dram.New(dramParams(opt), c.bot)
		if err != nil {
			return nil, err
		}
		c.dram = d
		c.top = &recMem{next: d}
	}
	return c, nil
}

// clone copies the composition's state; recorded streams are not copied.
func (c *composition) clone() *composition {
	n := &composition{
		opt:       c.opt,
		gen:       c.gen.Clone(),
		llc:       c.llc.Clone(),
		ctrl:      c.ctrl.Clone(),
		cpuCycles: c.cpuCycles,
		insts:     c.insts,
	}
	n.bot = &recMem{next: n.ctrl}
	n.top = n.bot
	if c.dram != nil {
		n.dram = c.dram.Clone(n.bot)
		n.top = &recMem{next: n.dram}
	}
	return n
}

func (c *composition) setRecording(on bool) {
	c.recording = on
	c.top.on = on
	c.bot.on = on
}

func (c *composition) memNow() uint64 { return uint64(c.cpuCycles / c.opt.CPUCyclesPerMemCycle) }

// step is sim.Machine.step over the public layer calls.
func (c *composition) step(a trace.Access) {
	o := &c.opt
	c.cpuCycles += float64(a.InstGap) * o.BaseCPI
	c.insts += uint64(a.InstGap)
	if c.recording {
		c.accesses++
		c.llcCalls = append(c.llcCalls, call{kind: opAccess, addr: a.Addr, write: a.Write})
	}
	res := c.llc.Access(a.Addr, a.Write)
	if res.Hit {
		c.cpuCycles += o.LLCHitCycles
	} else {
		now := c.memNow()
		if res.Writeback {
			accepted := c.top.Write(res.WritebackAddr, now)
			if accepted > now {
				c.cpuCycles += float64(accepted-now) * o.CPUCyclesPerMemCycle
				now = accepted
			}
		}
		done := c.top.Read(res.FillAddr, now)
		latCPU := float64(done-now) * o.CPUCyclesPerMemCycle
		if a.Write {
			c.cpuCycles += latCPU * o.StoreStallFactor
		} else {
			c.cpuCycles += latCPU * o.ReadStallFactor
		}
	}
	cfg := c.ctrl.Config()
	if cfg.EagerWritebacks && c.top.EagerSpace() {
		useless := c.llc.UselessPositions(cfg.EagerThreshold)
		if c.recording {
			c.llcCalls = append(c.llcCalls, call{kind: opUseless, arg: cfg.EagerThreshold, ret: uint64(useless)})
		}
		if useless > 0 {
			addr, ok := c.llc.NextEagerVictim(useless, o.EagerScanSets)
			if c.recording {
				c.llcCalls = append(c.llcCalls, call{kind: opVictim, arg: useless, ret: addr, write: ok})
			}
			if ok {
				c.top.EagerWrite(addr, c.memNow())
			}
		}
	}
}

// runAccesses is sim.Machine's runOwn: n accesses in StepBatchSize batches.
func (c *composition) runAccesses(n int) {
	if c.buf == nil {
		c.buf = make([]trace.Access, sim.StepBatchSize)
	}
	for n > 0 {
		k := min(len(c.buf), n)
		c.gen.Fill(c.buf[:k])
		for _, a := range c.buf[:k] {
			c.step(a)
		}
		n -= k
	}
}

// stepInstructions is sim.Machine.StepInstructions.
func (c *composition) stepInstructions(n uint64) {
	target := c.insts + n
	for c.insts < target {
		c.step(c.gen.Next())
	}
}

// finish is sim.Machine's finishRun: drain the hierarchy.
func (c *composition) finish() {
	final := c.top.Drain(c.memNow())
	if f := float64(final) * c.opt.CPUCyclesPerMemCycle; f > c.cpuCycles {
		c.cpuCycles = f
	}
}

// warmup is sim.Machine.Warmup: n accesses, then hybrid machines settle
// the DRAM tier's dirty set.
func (c *composition) warmup(n int) {
	c.runAccesses(n)
	if c.dram != nil {
		c.finish()
	}
}

func (c *composition) setConfig(cfg config.Config) error {
	if err := c.ctrl.SetConfig(cfg); err != nil {
		return err
	}
	if c.recording {
		c.configs = append(c.configs, cfg)
		c.bot.calls = append(c.bot.calls, call{kind: opConfig, arg: len(c.configs) - 1})
	}
	return nil
}

// counters is everything fidelity compares between a composition and a
// sim.Machine: the core clock and every layer's statistics.
func counters(cycles float64, insts uint64, llc cache.Stats, d *dram.Cache, ctrl *nvm.Controller) string {
	return digestOf([]any{cycles, insts, llc, dramStats(d), ctrl.Stats()})
}

func (c *composition) counters() string {
	return counters(c.cpuCycles, c.insts, c.llc.Stats(), c.dram, c.ctrl)
}

// machineCounters reads the same counters from a sim.Machine.
func machineCounters(m *sim.Machine) (string, error) {
	llc, ok := m.Tiers()[0].(*cache.Cache)
	if !ok {
		return "", fmt.Errorf("machine's front tier is %T, not *cache.Cache", m.Tiers()[0])
	}
	return counters(m.CPUCycles(), m.Instructions(), llc.Stats(), m.DRAM(), m.Controller()), nil
}

// recording is one recorded stretch of simulation: each layer's state at
// its start and each layer's input stream.
type recording struct {
	label string
	gen   *trace.Generator
	llc   *cache.Cache
	dram  *dram.Cache // nil on the NVM-only hierarchy; its next tier is a placeholder
	ctrl  *nvm.Controller

	accesses  int
	llcCalls  []call
	dramCalls []call // input of the DRAM tier (nil without it)
	nvmCalls  []call // input of the NVM controller
	configs   []config.Config
	// machine runs the same stretch on a fresh sim.Machine and returns it
	// with its host time: the step-loop cost the layer costs must add up
	// to, and the counters the composition's must equal.
	machine func() (*sim.Machine, time.Duration, error)
	// stepHasDrain is false when machine leaves out the recording's final
	// drain, whose cost closure then leaves out too.
	stepHasDrain bool
	// clones is the host time of cloning each layer at the end of the
	// recording, in µs.
	clones map[string]float64
	// llcHits and dramHits/dramLookups are the stretch's hit counts.
	llcHits, llcLookups   uint64
	dramHits, dramLookups uint64
}

// record runs body on c with recording on and returns the recording. The
// layer states are cloned before body runs.
func (c *composition) record(label string, body func(*composition) error) (*recording, error) {
	r := &recording{
		label: label,
		gen:   c.gen.Clone(),
		llc:   c.llc.Clone(),
		ctrl:  c.ctrl.Clone(),
	}
	if c.dram != nil {
		r.dram = c.dram.Clone(c.ctrl.Clone())
	}
	llc0, dram0 := c.llc.Stats(), dramStats(c.dram)
	c.setRecording(true)
	err := body(c)
	c.setRecording(false)
	if err != nil {
		return nil, err
	}
	llc1, dram1 := c.llc.Stats(), dramStats(c.dram)
	r.accesses = c.accesses
	r.llcCalls, r.configs = c.llcCalls, c.configs
	r.nvmCalls = c.bot.calls
	if c.dram != nil {
		r.dramCalls = c.top.calls
	}
	r.llcHits = llc1.Hits - llc0.Hits
	r.llcLookups = r.llcHits + llc1.Misses - llc0.Misses
	r.dramHits = dram1.Hits - dram0.Hits
	r.dramLookups = r.dramHits + dram1.Misses - dram0.Misses
	c.accesses, c.llcCalls, c.configs, c.bot.calls, c.top.calls = 0, nil, nil, nil, nil
	r.clones = map[string]float64{
		"cache.clone_us": cloneMicros(func() { c.llc.Clone() }),
		"nvm.clone_us":   cloneMicros(func() { c.ctrl.Clone() }),
	}
	if c.dram != nil {
		r.clones["dram.clone_us"] = cloneMicros(func() { c.dram.Clone(c.bot) })
	}
	return r, nil
}

// cloneMicros is the median time of five calls of f, in µs.
func cloneMicros(f func()) float64 {
	var ds []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		f()
		ds = append(ds, float64(time.Since(t0))/1e3)
	}
	return median(ds)
}

func (r *recording) newNVM() (hierarchy.Mem, *stubMem) { return r.ctrl.Clone(), nil }

func (r *recording) newDRAM() (hierarchy.Mem, *stubMem) {
	s := &stubMem{calls: r.nvmCalls}
	return r.dram.Clone(s), s
}

// configureNVM replays an opConfig entry. The configuration was accepted
// when it was recorded, so it is valid here.
func (r *recording) configureNVM(t hierarchy.Mem, i int) {
	_ = t.(*nvm.Controller).SetConfig(r.configs[i])
}

func dramStats(d *dram.Cache) dram.Stats {
	if d == nil {
		return dram.Stats{}
	}
	return d.Stats()
}
