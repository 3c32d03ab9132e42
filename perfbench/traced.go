package main

// The traced run. It works from outside the program, in four parts:
//
//  1. Untraced rounds of the workload before and after the traced one,
//     the reference for the traced round's outputs and wall time (their
//     difference is the tracing overhead).
//  2. One traced round: the same work, timed at each layer boundary the
//     benchmark can reach through public calls — sim.Prepare and
//     Prepared.Evaluate for sweep, a wrapped core.System and timed
//     predictors for mct-online, the daemon's event stream and a direct
//     server.Execute for hybrid-job. Its outputs must equal the untraced
//     round's.
//  3. Recordings: the workload's simulation re-run through the recording
//     composition (compose.go), whose counters must equal a sim.Machine's
//     for the same app, configuration and seed.
//  4. Replays of each recorded layer stream alone (replay.go), round after
//     round, and the closure check that the layer costs add up to the
//     step loop's.
//
// The traced run reports every per-layer metric. Layers the workload does
// not exercise are measured by the same procedure on one operation of the
// workload that does (a probe): the DRAM tier on a hybrid job, the
// learning stack on one runtime, and so on.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mct/api"
	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/engine"
	"mct/internal/ml"
	"mct/internal/server"
	"mct/internal/sim"
	"mct/internal/trace"
)

// recordInsts bounds the instructions a runtime or job recording covers
// (after warmup), which bounds the recording's memory.
const recordInsts = 3_000_000

// tally counts the traced run's checks.
type tally struct {
	ops, failed int
	notes       []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.ops++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
}

func (t *tally) note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// pathRun is the input of one workload's traced procedure.
type pathRun struct {
	seed int64
	dir  string
	// own is true for the run's own workload: the full round plus the
	// untraced reference. A probe traces one operation.
	own   bool
	gold  map[string]string // golden digests (own workload, default seed)
	until time.Time         // replays run until then
	t     *tally
}

func runTraced(ctx context.Context, w workload, seed int64, budget time.Duration, dir string, gold goldenFile, md *meta) (result, error) {
	start := time.Now()
	t := &tally{}
	var g map[string]string
	if seed == defaultSeed {
		g = gold.Digests[w.name]
		if g == nil {
			g = map[string]string{}
		}
	}
	own, err := w.trace(ctx, pathRun{seed: seed, dir: dir, own: true, gold: g, until: start.Add(budget * 3 / 4), t: t})
	if err != nil {
		return result{}, err
	}
	out := map[string]metric{}
	add := func(m map[string]float64) {
		for k, v := range m {
			if _, ok := out[k]; !ok {
				out[k] = metric{v, unitOf(k)}
			}
		}
	}
	add(own)
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		m, err := other.trace(ctx, pathRun{seed: seed, dir: dir, until: time.Now(), t: t})
		if err != nil {
			return result{}, err
		}
		add(m)
	}
	for _, lm := range layerMetrics {
		if _, ok := out[lm.name]; !ok {
			return result{}, fmt.Errorf("traced run produced no %s", lm.name)
		}
	}
	if u := own["sim.unattributed_frac"]; u > closureTolerance || u < -closureTolerance {
		t.note("closure: unattributed share %.3f outside ±%.2f", u, closureTolerance)
	}
	md.Ops, md.Notes = t.ops, t.notes
	return result{Correct: t.failed == 0, Attempted: t.ops, Failed: t.failed, Metrics: out}, nil
}

func unitOf(name string) string {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit
		}
	}
	return ""
}

// untraced runs the reference round of the run's own workload (nil for a
// probe).
func (p pathRun) untraced(ctx context.Context, in instance) []opResult {
	if !p.own {
		return nil
	}
	return in.round(ctx)
}

// overhead runs a second untraced round after the traced one, checks its
// outputs against the first, and sets bench.trace_overhead_s: the traced
// round's wall time minus the mean of the two untraced rounds', so that
// neither side alone pays the process's first, cold round.
func (p pathRun) overhead(ctx context.Context, in instance, untraced, traced []opResult, m map[string]float64) {
	if !p.own {
		return
	}
	again := in.round(ctx)
	checkRound(p.t, again, untraced, nil)
	m["bench.trace_overhead_s"] = roundWall(traced) - (roundWall(untraced)+roundWall(again))/2
}

// checkRound checks a round's operations: each must succeed and, when
// there is a reference round (the first untraced one), match its digest;
// the reference must match golden.json at the default seed.
func checkRound(t *tally, rs, ref []opResult, gold map[string]string) {
	for i, r := range rs {
		t.check(r.err == nil, "%s: %v", r.name, r.err)
		if ref == nil {
			continue
		}
		u := ref[i]
		t.check(u.err == nil && u.digest == r.digest, "%s: digest %s, reference round %s (%v)", r.name, r.digest, u.digest, u.err)
		if gold != nil {
			t.check(gold[u.name] == u.digest, "%s: digest %s, golden %q", u.name, u.digest, gold[u.name])
		}
	}
}

func roundWall(rs []opResult) float64 {
	var s float64
	for _, r := range rs {
		s += r.latency.Seconds()
	}
	return s
}

// checkMachine runs rec's sim.Machine once, checks that the composition's
// counters, taken where the machine stops, equal the machine's, and
// returns the time to clone that machine in µs.
func checkMachine(t *tally, rec *recording, compCounters string) (float64, error) {
	mc, _, err := rec.machine()
	if err != nil {
		return 0, err
	}
	got, err := machineCounters(mc)
	if err != nil {
		return 0, err
	}
	t.check(got == compCounters, "fidelity %s: composition counters differ from sim.Machine's", rec.label)
	return cloneMicros(func() { mc.Clone() }), nil
}

// finishLayers replays the recordings and adds the layer figures to m;
// simClone holds checkMachine's clone times.
func finishLayers(p pathRun, recs []*recording, simClone []float64, m map[string]float64) error {
	lm, costs, bad, err := measureLayers(recs, sim.DefaultOptions().EagerScanSets, p.until, 3, slowdown{})
	if err != nil {
		return err
	}
	p.t.check(bad == 0, "replays: %d responses differ from the recording", bad)
	for k, v := range lm {
		m[k] = v
	}
	clones := map[string][]float64{"sim.clone_us": simClone}
	for _, r := range recs {
		for _, k := range []string{"cache.clone_us", "nvm.clone_us", "dram.clone_us"} {
			if v, ok := r.clones[k]; ok {
				clones[k] = append(clones[k], v)
			}
		}
	}
	for k, vs := range clones {
		if len(vs) > 0 {
			m[k] = median(vs)
		}
	}
	if p.own {
		p.t.note("closure: step %.1f ns/access = trace %.1f + cache %.1f + dram %.1f + nvm %.1f + unattributed %.1f%%",
			costs.step, costs.fill, costs.cache, costs.dram, costs.nvm, 100*costs.unattributed())
	}
	return nil
}

// ---- sweep ----------------------------------------------------------------

// sweepRecordConfigs is how many configurations per app the sweep path
// records.
const sweepRecordConfigs = 2

func traceSweep(ctx context.Context, p pathRun) (map[string]float64, error) {
	opt := sweepOptions(p.seed)
	if !p.own {
		opt.Benchmarks = opt.Benchmarks[p.seed%int64(len(opt.Benchmarks)):][:1]
	}
	in := &sweepInstance{opt: opt}
	untraced := p.untraced(ctx, in)

	// Traced round: computeSweep's public calls, timed.
	simOpt := opt.Sim
	simOpt.Seed = opt.Seed
	space := config.NewSpace(config.SpaceOptions{})
	var indices []int
	for i := 0; i < space.Len(); i += opt.Stride {
		indices = append(indices, i)
	}
	var prepMs, evalMs []float64
	var busy, mapWall time.Duration
	traced := make([]opResult, 0, len(opt.Benchmarks))
	for _, b := range opt.Benchmarks {
		t0 := time.Now()
		prep, err := sim.Prepare(b, 0, opt.Accesses, simOpt)
		if err != nil {
			return nil, err
		}
		prepMs = append(prepMs, float64(time.Since(t0))/1e6)
		m0 := time.Now()
		evals, err := engine.Map(ctx, len(indices), engine.Options{Workers: opt.Workers}, func(_ context.Context, k int) (timedEval, error) {
			e0 := time.Now()
			m, err := prep.Evaluate(space.At(indices[k]))
			return timedEval{m, time.Since(e0)}, err
		})
		mapWall += time.Since(m0)
		if err != nil {
			return nil, err
		}
		ms := make([]sim.Metrics, len(evals))
		for k, e := range evals {
			ms[k] = e.m
			busy += e.took
			evalMs = append(evalMs, float64(e.took)/1e6)
		}
		base, err := prep.Evaluate(baselineConfig())
		if err != nil {
			return nil, err
		}
		def, err := prep.Evaluate(config.Default())
		if err != nil {
			return nil, err
		}
		traced = append(traced, opResult{name: b, latency: time.Since(t0), digest: sweepDigest(indices, ms, base, def)})
	}
	checkRound(p.t, traced, untraced, p.gold)
	m := map[string]float64{
		"sim.prepare_ms":      median(prepMs),
		"sim.evaluate_ms_p50": quantile(evalMs, 0.5),
		"sim.evaluate_ms_p99": quantile(evalMs, 0.99),
		"engine.busy_frac":    float64(busy) / (float64(mapWall) * float64(runtime.GOMAXPROCS(0))),
	}
	p.overhead(ctx, in, untraced, traced, m)

	// Recordings: per app, the warm machine of sim.Prepare, then a few of
	// the swept configurations, each from its own clone.
	var recs []*recording
	var simClone []float64
	for _, b := range opt.Benchmarks {
		spec, err := trace.ByName(b)
		if err != nil {
			return nil, err
		}
		comp, err := newComposition(spec, config.Default(), simOpt)
		if err != nil {
			return nil, err
		}
		comp.warmup(sim.DefaultWarmupAccesses)
		warm, err := sim.NewMachine(spec, config.Default(), simOpt)
		if err != nil {
			return nil, err
		}
		warm.Warmup(sim.DefaultWarmupAccesses)
		for k := 0; k < sweepRecordConfigs; k++ {
			cfg := space.At(indices[(int(p.seed)*7+k*len(indices)/sweepRecordConfigs)%len(indices)])
			var compCounters string
			rec, err := comp.clone().record(fmt.Sprintf("%s config %v", b, cfg), func(c *composition) error {
				if err := c.setConfig(cfg); err != nil {
					return err
				}
				c.runAccesses(opt.Accesses)
				compCounters = c.counters()
				c.finish()
				return nil
			})
			if err != nil {
				return nil, err
			}
			rec.machine = func() (*sim.Machine, time.Duration, error) {
				mc := warm.Clone()
				if err := mc.SetConfig(cfg); err != nil {
					return nil, 0, err
				}
				t0 := time.Now()
				mc.RunAccesses(opt.Accesses)
				return mc, time.Since(t0), nil
			}
			us, err := checkMachine(p.t, rec, compCounters)
			if err != nil {
				return nil, err
			}
			simClone = append(simClone, us)
			recs = append(recs, rec)
		}
	}
	return m, finishLayers(p, recs, simClone, m)
}

// timedEval is one configuration evaluation and its host time.
type timedEval struct {
	m    sim.Metrics
	took time.Duration
}

// baselineConfig is the sweep's static baseline at the default objective's
// lifetime floor (experiments' baselineAt).
func baselineConfig() config.Config {
	b := config.StaticBaseline()
	b.WearQuotaTarget = lifetimeTarget
	return b
}

// ---- mct-online -------------------------------------------------------------

// sysCall is one logged call into the runtime's machine: SetConfig(cfg),
// Warmup(accesses) or RunInstructions(insts).
type sysCall struct {
	kind     uint8 // opConfig, opWrite (Warmup) or opRead (RunInstructions)
	cfg      config.Config
	accesses int
	insts    uint64
}

// timedSystem wraps the runtime's machine, timing every call and logging
// the call sequence so the recording composition can replay it.
type timedSystem struct {
	m       *sim.Machine
	busy    time.Duration
	windows []float64 // RunInstructions host times, µs
	log     []sysCall
	insts   uint64 // instructions in the log
}

func (s *timedSystem) RunInstructions(n uint64) sim.Metrics {
	t0 := time.Now()
	m := s.m.RunInstructions(n)
	d := time.Since(t0)
	s.busy += d
	s.windows = append(s.windows, float64(d)/1e3)
	if s.insts < recordInsts {
		s.log = append(s.log, sysCall{kind: opRead, insts: n})
		s.insts += m.Instructions
	}
	return m
}

func (s *timedSystem) SetConfig(cfg config.Config) error {
	t0 := time.Now()
	err := s.m.SetConfig(cfg)
	s.busy += time.Since(t0)
	if s.insts < recordInsts {
		s.log = append(s.log, sysCall{kind: opConfig, cfg: cfg})
	}
	return err
}

func (s *timedSystem) Options() sim.Options { return s.m.Options() }

func (s *timedSystem) Warmup(n int) uint64 {
	t0 := time.Now()
	v := s.m.Warmup(n)
	s.busy += time.Since(t0)
	s.log = append(s.log, sysCall{kind: opWrite, accesses: n})
	return v
}

// timedPredictor times Fit and Predict of the runtime's predictors.
type timedPredictor struct {
	ml.Predictor
	stats *mlStats
}

type mlStats struct {
	fits        []float64 // ms
	predict     time.Duration
	predictions int
}

func (p timedPredictor) Fit(X [][]float64, y []float64) error {
	t0 := time.Now()
	err := p.Predictor.Fit(X, y)
	p.stats.fits = append(p.stats.fits, float64(time.Since(t0))/1e6)
	return err
}

func (p timedPredictor) Predict(x []float64) float64 {
	t0 := time.Now()
	v := p.Predictor.Predict(x)
	p.stats.predict += time.Since(t0)
	p.stats.predictions++
	return v
}

// replaySys applies a logged call sequence to a sim.Machine or to a
// composition.
func replaySys(log []sysCall, setConfig func(config.Config) error, warmup func(int), run func(uint64)) error {
	for _, c := range log {
		switch c.kind {
		case opConfig:
			if err := setConfig(c.cfg); err != nil {
				return err
			}
		case opWrite:
			warmup(c.accesses)
		case opRead:
			run(c.insts)
		}
	}
	return nil
}

func traceOnline(ctx context.Context, p pathRun) (map[string]float64, error) {
	in, err := setupOnline(ctx, p.seed, p.dir)
	if err != nil {
		return nil, err
	}
	o := in.(*onlineInstance)
	if !p.own {
		o.specs = o.specs[p.seed%int64(len(o.specs)):][:1]
	}
	untraced := p.untraced(ctx, o)

	// Traced round.
	st := &mlStats{}
	ro := o.ro
	ro.NewPredictor = func() (ml.Predictor, error) {
		pr, err := ml.New(o.ro.Model)
		return timedPredictor{Predictor: pr, stats: st}, err
	}
	var (
		systems []*timedSystem
		results []core.Result
		runBusy time.Duration
		phases  int
		windows []float64
	)
	traced := make([]opResult, 0, len(o.specs))
	for _, spec := range o.specs {
		var sys *timedSystem
		t0 := time.Now()
		res, err := runOnline(spec, o.seed, o.obj, ro, func(m *sim.Machine) core.System {
			sys = &timedSystem{m: m}
			return sys
		})
		d := time.Since(t0)
		traced = append(traced, opResult{name: spec.Name, latency: d, err: err, digest: digestOf(res)})
		if err != nil {
			continue
		}
		runBusy += d
		systems, results = append(systems, sys), append(results, res)
		phases += len(res.Phases)
		windows = append(windows, sys.windows...)
	}
	checkRound(p.t, traced, untraced, p.gold)
	if len(systems) == 0 {
		return nil, errors.New("mct-online: no runtime completed")
	}
	var machine time.Duration
	for _, s := range systems {
		machine += s.busy
	}
	var fitMs float64
	for _, f := range st.fits {
		fitMs += f
	}
	selMs, predAllMs, predAllAllocs, err := decideParts(results[len(results)-1], o)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"core.machine_frac":     float64(machine) / float64(runBusy),
		"core.decide_ms":        (fitMs+float64(st.predict)/1e6)/float64(max(phases, 1)) + selMs,
		"core.windows":          float64(len(windows)) / float64(len(systems)),
		"sim.run_window_us":     median(windows),
		"ml.fit_ms":             median(st.fits),
		"ml.predict_ns":         float64(st.predict) / float64(max(st.predictions, 1)),
		"ml.predict_all_ms":     predAllMs,
		"ml.predict_all_allocs": predAllAllocs,
	}
	p.overhead(ctx, o, untraced, traced, m)

	// Recordings: the logged call prefix of one or two runtimes, replayed
	// through the composition and through a fresh sim.Machine.
	var recs []*recording
	var simClone []float64
	for i := 0; i < len(systems) && i < 2; i++ {
		k := (int(p.seed) + 5*i) % len(systems)
		spec, log := o.specs[k], systems[k].log
		simOpt := onlineSimOptions(o.seed)
		comp, err := newComposition(spec, config.StaticBaseline(), simOpt)
		if err != nil {
			return nil, err
		}
		rec, err := comp.record(spec.Name+" runtime prefix", func(c *composition) error {
			return replaySys(log, c.setConfig, c.warmup, c.stepInstructions)
		})
		if err != nil {
			return nil, err
		}
		rec.machine = func() (*sim.Machine, time.Duration, error) {
			mc, err := sim.NewMachine(spec, config.StaticBaseline(), simOpt)
			if err != nil {
				return nil, 0, err
			}
			t0 := time.Now()
			err = replaySys(log, mc.SetConfig, func(n int) { mc.Warmup(n) }, func(n uint64) { mc.RunInstructions(n) })
			return mc, time.Since(t0), err
		}
		rec.stepHasDrain = true
		us, err := checkMachine(p.t, rec, comp.counters())
		if err != nil {
			return nil, err
		}
		simClone = append(simClone, us)
		recs = append(recs, rec)
	}
	return m, finishLayers(p, recs, simClone, m)
}

// decideParts refits the runtime's last decision outside the runtime and
// times the parts the runtime's hooks cannot reach: SelectOptimal over
// the predictions, and TradeoffModel.PredictAll with its allocations.
func decideParts(res core.Result, o *onlineInstance) (selMs, predAllMs, allocs float64, err error) {
	var d core.Decision
	var base sim.Metrics
	for _, ph := range res.Phases {
		if len(ph.Decision.SampleMetrics) >= 3 && len(ph.Decision.SampleMetrics) == len(ph.Decision.SampleIndices) {
			d, base = ph.Decision, ph.Baseline
		}
	}
	if d.SampleMetrics == nil {
		return 0, 0, 0, errors.New("mct-online: no phase with a complete sample set")
	}
	space := config.NewSpace(o.ro.Space)
	samples := make([]config.Config, len(d.SampleIndices))
	for i, idx := range d.SampleIndices {
		samples[i] = space.At(idx)
	}
	tm, err := core.NewTradeoffModel(o.ro.Model)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := tm.Fit(samples, d.SampleMetrics, base); err != nil {
		return 0, 0, 0, err
	}
	var preds [][3]float64
	var times, sels []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		preds = tm.PredictAll(space)
		times = append(times, float64(time.Since(t0))/1e6)
		runtime.ReadMemStats(&ms1)
		allocs = float64(ms1.Mallocs - ms0.Mallocs)
		t0 = time.Now()
		core.SelectOptimal(preds, o.obj)
		sels = append(sels, float64(time.Since(t0))/1e6)
	}
	return median(sels), median(times), allocs, nil
}

// ---- hybrid-job -------------------------------------------------------------

// jobSimOptions is the machine an evaluate job builds (server's
// simOptions).
func jobSimOptions(spec api.JobSpec) sim.Options {
	o := sim.DefaultOptions()
	o.Tiers = config.TierConfig{DRAMCache: spec.DRAMCache, DRAMPromoteThreshold: spec.DRAMPromoteThreshold}
	return o
}

func traceJob(ctx context.Context, p pathRun) (map[string]float64, error) {
	in, err := setupJob(ctx, p.seed, p.dir)
	if err != nil {
		return nil, err
	}
	j := in.(*jobInstance)
	m, err := traceJobOn(ctx, p, j)
	return m, errors.Join(err, j.close())
}

func traceJobOn(ctx context.Context, p pathRun, j *jobInstance) (map[string]float64, error) {
	if !p.own {
		j.specs = j.specs[p.seed%int64(len(j.specs)):][:1]
	}
	untraced := p.untraced(ctx, j)

	// Traced round: the closed loop with the event stream's timestamps,
	// then each job once more through server.Execute directly.
	traced := make([]opResult, 0, len(j.specs))
	var lats, waits, execs, overheads []float64
	for i, spec := range j.specs {
		t0 := time.Now()
		art, tm, err := j.runJob(spec)
		lat := time.Since(t0)
		traced = append(traced, opResult{name: fmt.Sprintf("%d-%s", i, spec.Benchmark), latency: lat, err: err, digest: digestBytes(art)})
		if err != nil {
			continue
		}
		lats = append(lats, lat.Seconds())
		waits = append(waits, float64(tm.running.Sub(tm.submitted))/1e6)

		ckDir, err := os.MkdirTemp(p.dir, "execute-")
		if err != nil {
			return nil, err
		}
		e0 := time.Now()
		direct, err := server.Execute(ctx, spec, server.ExecOptions{Checkpoints: &server.Checkpoints{Dir: ckDir}})
		ex := time.Since(e0)
		if rerr := os.RemoveAll(ckDir); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
		p.t.check(digestBytes(direct) == digestBytes(art), "job %d-%s: server.Execute artifact differs from the daemon's", i, spec.Benchmark)
		execs = append(execs, ex.Seconds())
		overheads = append(overheads, float64(lat-ex)/1e6)
	}
	checkRound(p.t, traced, untraced, p.gold)
	if len(execs) == 0 {
		return nil, errors.New("hybrid-job: no job completed")
	}
	save, load, size, err := checkpointCosts(j.specs[0], p.dir)
	if err != nil {
		return nil, err
	}
	chunks := (jobInsts + server.DefaultChunkInsts - 1) / server.DefaultChunkInsts
	m := map[string]float64{
		"server.execute_s":       median(execs),
		"server.overhead_ms":     median(overheads),
		"server.queue_wait_ms":   median(waits),
		"server.checkpoint_frac": float64(chunks) * save / (1e3 * median(execs)),
		"sim.checkpoint_save_ms": save,
		"sim.checkpoint_load_ms": load,
		"sim.checkpoint_bytes":   size,
	}
	p.overhead(ctx, j, untraced, traced, m)

	// Recordings: warmup plus the first recordInsts instructions of one or
	// two jobs.
	var recs []*recording
	var simClone []float64
	for i := 0; i < len(j.specs) && i < 2; i++ {
		spec := j.specs[(int(p.seed)+2*i)%len(j.specs)]
		cfg, err := spec.Config.Config()
		if err != nil {
			return nil, err
		}
		ts, err := trace.ByName(spec.Benchmark)
		if err != nil {
			return nil, err
		}
		simOpt := jobSimOptions(spec)
		comp, err := newComposition(ts, cfg, simOpt)
		if err != nil {
			return nil, err
		}
		rec, err := comp.record(spec.Benchmark+" job", func(c *composition) error {
			c.warmup(sim.DefaultWarmupAccesses)
			c.stepInstructions(recordInsts)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rec.machine = func() (*sim.Machine, time.Duration, error) {
			mc, err := sim.NewMachine(ts, cfg, simOpt)
			if err != nil {
				return nil, 0, err
			}
			t0 := time.Now()
			mc.Warmup(sim.DefaultWarmupAccesses)
			mc.StepInstructions(recordInsts)
			return mc, time.Since(t0), nil
		}
		rec.stepHasDrain = true
		us, err := checkMachine(p.t, rec, comp.counters())
		if err != nil {
			return nil, err
		}
		simClone = append(simClone, us)
		recs = append(recs, rec)
	}
	return m, finishLayers(p, recs, simClone, m)
}

// checkpointCosts times sim.SaveCheckpoint and sim.LoadCheckpoint on the
// machine of spec after its first checkpoint chunk: median ms of five each,
// and the file's size in bytes.
func checkpointCosts(spec api.JobSpec, dir string) (save, load, size float64, err error) {
	cfg, err := spec.Config.Config()
	if err != nil {
		return 0, 0, 0, err
	}
	ts, err := trace.ByName(spec.Benchmark)
	if err != nil {
		return 0, 0, 0, err
	}
	mc, err := sim.NewMachine(ts, cfg, jobSimOptions(spec))
	if err != nil {
		return 0, 0, 0, err
	}
	mc.Warmup(sim.DefaultWarmupAccesses)
	mc.StepInstructions(server.DefaultChunkInsts)
	path := filepath.Join(dir, "machine.ckpt")
	defer os.Remove(path)
	var saves, loads []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := sim.SaveCheckpoint(path, mc); err != nil {
			return 0, 0, 0, err
		}
		saves = append(saves, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		if _, err := sim.LoadCheckpoint(path); err != nil {
			return 0, 0, 0, err
		}
		loads = append(loads, float64(time.Since(t0))/1e6)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}
	return median(saves), median(loads), float64(fi.Size()), nil
}
