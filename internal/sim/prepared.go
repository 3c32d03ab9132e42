package sim

import (
	"fmt"

	"mct/internal/config"
	"mct/internal/trace"
)

// DefaultWarmupAccesses fills a 2 MB LLC (32768 lines) with headroom before
// measurement starts; without warmup a short trace produces no evictions,
// hence no memory writes and meaningless lifetimes.
const DefaultWarmupAccesses = 60_000

// warmupConfig is the fixed configuration the shared warmup runs under.
// It must be one config for all evaluations (the warm machine is built
// once), and the all-fast default keeps warmup neutral: no techniques are
// active, so no configuration under test gets a head start.
func warmupConfig() config.Config { return config.Default() }

// Prepared is a benchmark workload prepared for repeated configuration
// evaluations: one machine (trace generator, LLC and NVM controller) has
// been warmed once under a fixed warmup configuration, and every evaluation
// clones the whole warm machine, switches it to the configuration under
// test, and streams only the identical measurement window. This is what
// makes brute-force sweeps of thousands of configurations affordable and
// fair: the warmup — the one cost per-configuration parallelism cannot
// remove — is paid once per benchmark instead of once per configuration.
//
// The measurement trace is never materialized: the warm machine's generator
// sits exactly at the end of warmup, so each evaluation's clone regenerates
// the measurement stream from its own cloned generator — the identical
// stream for every configuration (the trace is a pure function of
// generator state), in O(StepBatchSize) memory instead of O(measure).
//
// Concurrency contract: after Prepare returns, a Prepared is immutable —
// Evaluate only reads the warm machine (via Clone, which never writes to
// its receiver and shares nothing mutable), and builds all mutable
// simulation state per call. Any number of goroutines may therefore call
// Evaluate on one Prepared concurrently, and each evaluation's result
// depends only on its configuration — never on what other evaluations run
// beside it or in which order.
type Prepared struct {
	Spec trace.Spec
	opt  Options

	warmup   int
	nMeasure int
	warm     *Machine
}

// Prepare warms a machine with warmup accesses of the named benchmark
// (under warmupConfig); evaluations then stream measure accesses from the
// warmed position. warmup ≤ 0 uses DefaultWarmupAccesses.
func Prepare(benchmark string, warmup, measure int, opt Options) (*Prepared, error) {
	if measure <= 0 {
		return nil, fmt.Errorf("sim: non-positive measurement length %d", measure)
	}
	if warmup <= 0 {
		warmup = DefaultWarmupAccesses
	}
	spec, err := trace.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	m, err := NewMachine(spec, warmupConfig(), opt)
	if err != nil {
		return nil, err
	}
	// Warm the whole machine: LLC contents, controller queues/row buffers,
	// and warmup-accrued wear (subtracted out by window accounting). The
	// generator is left exactly at the measurement cut. Hybrid machines
	// settle the DRAM tier's dirty set here so it is charged to warmup,
	// not to every configuration's first measurement window.
	m.runOwn(warmup)
	m.settleHierarchy()
	return &Prepared{
		Spec:     spec,
		opt:      opt,
		warmup:   warmup,
		nMeasure: measure,
		warm:     m,
	}, nil
}

// Checkpoint writes the prepared workload's warm machine to path as a
// standard machine checkpoint (see SaveCheckpoint). A later process can
// rebuild the Prepared with LoadCheckpoint + PreparedFromMachine and skip
// the warmup replay entirely.
func (p *Prepared) Checkpoint(path string) error {
	return SaveCheckpoint(path, p.warm)
}

// PreparedFromMachine wraps an already-warmed machine — typically one
// restored from a checkpoint written by Prepared.Checkpoint — as a Prepared
// measuring measure accesses per evaluation. The machine's generator must
// sit exactly at the measurement cut (where Prepare leaves it); warmup ≤ 0
// records DefaultWarmupAccesses, which only matters to EvaluateCold's
// replay. The machine is adopted: the caller must not touch it afterwards.
func PreparedFromMachine(m *Machine, warmup, measure int) (*Prepared, error) {
	if measure <= 0 {
		return nil, fmt.Errorf("sim: non-positive measurement length %d", measure)
	}
	if len(m.cores) != 1 {
		return nil, fmt.Errorf("sim: a prepared workload is single-core, the machine has %d cores", len(m.cores))
	}
	if warmup <= 0 {
		warmup = DefaultWarmupAccesses
	}
	return &Prepared{
		Spec:     m.cores[0].gen.Spec(),
		opt:      m.opt,
		warmup:   warmup,
		nMeasure: measure,
		warm:     m,
	}, nil
}

// Evaluate measures one configuration on the prepared workload by cloning
// the warm machine and streaming the measurement window from the clone's
// own generator. It is safe for concurrent use (see the Prepared
// concurrency contract) and returns the same Metrics for the same
// configuration no matter how many evaluations run in parallel.
func (p *Prepared) Evaluate(cfg config.Config) (Metrics, error) {
	m := p.warm.Clone()
	if err := m.SetConfig(cfg); err != nil {
		return Metrics{}, err
	}
	return p.measure(m)
}

// EvaluateCold measures one configuration the pre-clone way: build a fresh
// machine and replay the entire warmup before the measurement window. It
// must produce byte-identical Metrics to Evaluate — that equivalence is the
// correctness proof of the whole snapshot contract (enforced by tests) —
// and exists as the reference path for those tests and for the cold-vs-warm
// sweep benchmarks.
func (p *Prepared) EvaluateCold(cfg config.Config) (Metrics, error) {
	m, err := NewMachine(p.Spec, warmupConfig(), p.opt)
	if err != nil {
		return Metrics{}, err
	}
	m.runOwn(p.warmup)
	m.settleHierarchy()
	if err := m.SetConfig(cfg); err != nil {
		return Metrics{}, err
	}
	return p.measure(m)
}

// measure streams the measurement window on m — whose generator is
// positioned at the measurement cut — and returns the window metrics, with
// queued writes drained so their wear and energy are charged. The stream is
// identical for every configuration because every m starts from the same
// generator state.
func (p *Prepared) measure(m *Machine) (Metrics, error) {
	m.beginWindow()
	m.runOwn(p.nMeasure)
	m.finishRun()
	return m.windowMetrics(), nil
}

// Warmup advances the machine by n trace accesses and then resets window
// accounting — run it once before measuring so the LLC and controller reach
// steady state. It returns the instructions executed.
func (m *Machine) Warmup(n int) uint64 {
	before := m.Instructions()
	m.runOwn(n)
	m.settleHierarchy()
	m.beginWindow()
	return m.Instructions() - before
}
