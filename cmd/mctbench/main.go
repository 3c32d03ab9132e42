// Command mctbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports.
//
// Usage:
//
//	mctbench -experiment fig7              # one experiment, full fidelity
//	mctbench -experiment all -quick        # everything, reduced fidelity
//	mctbench -experiment fig1 -workers 8   # bound sweep parallelism
//	mctbench -list                         # list experiment IDs
//	mctbench -obs-bench                    # gate observability overhead
//	mctbench -profile -quick               # pprof a sweep into results/
//	mctbench -mem-smoke 50000000           # memory-boundedness smoke
//	mctbench -experiment fig1 -quick -metrics-out results/BENCH_metrics.json
//
// Ctrl-C cancels gracefully: the current experiment aborts promptly, and
// sweeps that already completed stay valid in the MCT_SWEEP_CACHE disk
// cache (entries are written atomically, only after a sweep finishes), so
// a rerun picks up where the caches left off.
//
// -obs-bench measures the cost of the observability layer itself: it runs
// the identical MCT runtime twice — once with a metrics registry attached,
// once bare — takes the best of three trials per arm, writes
// results/BENCH_obs.json, and fails (exit 1) when the instrumented run is
// more than -obs-overhead-max slower. The layer publishes cumulative-stats
// deltas only at window boundaries, so the expected overhead is ~0%.
//
// -profile runs the selected benchmarks' sweeps under the CPU profiler and
// snapshots the post-run heap, mutex-contention, and blocking profiles,
// writing results/PROFILE_{cpu,heap,mutex,block}.pprof for
// `go tool pprof`. This is the profiling
// hook behind the streaming-pipeline optimizations: layout and allocation
// changes in the cache/nvm/trace hot paths are justified against these
// profiles, not intuition.
//
// -mem-smoke N streams N accesses through one evaluation and fails unless
// cumulative allocation stays under -mem-smoke-alloc-max — the
// memory-boundedness proof of the streaming pipeline (materializing the
// trace would allocate 24 bytes per access, ~1.2 GB at N=50M). Run it under
// a fixed GOMEMLIMIT to also demonstrate the live heap fits a small budget.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"mct"
	"mct/internal/config"
	"mct/internal/experiments"
	"mct/internal/sim"
)

func main() {
	var (
		expID    = flag.String("experiment", "all", "experiment ID (see -list) or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quick    = flag.Bool("quick", false, "reduced fidelity: strided space, short traces")
		stride   = flag.Int("stride", 0, "override configuration-space stride (0 = preset)")
		acc      = flag.Int("accesses", 0, "override trace length per evaluation (0 = preset)")
		insts    = flag.Uint64("insts", 0, "override MCT run length in instructions (0 = preset)")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		workers  = flag.Int("workers", 0, "parallel evaluation workers (0 = GOMAXPROCS)")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
		asJSON   = flag.Bool("json", false, "emit structured JSON instead of text tables")
		obBench  = flag.Bool("obs-bench", false, "gate observability overhead and write results/BENCH_obs.json")
		obMax    = flag.Float64("obs-overhead-max", 0.03, "maximum tolerated -obs-bench slowdown (fraction)")
		profile  = flag.Bool("profile", false, "capture CPU, heap, mutex and block pprof profiles of the sweeps into results/")
		memSmoke = flag.Int("mem-smoke", 0, "stream N accesses through one evaluation and gate total allocation (memory-boundedness smoke)")
		memMax   = flag.Int64("mem-smoke-alloc-max", 256<<20, "maximum tolerated cumulative allocation in bytes for -mem-smoke")
		metrics  = flag.String("metrics-out", "", "write a sorted JSON metrics dump of the experiment runs to this file")
		dram     = flag.Bool("dram", false, "run experiments on the hybrid hierarchy: DRAM cache tier between LLC and NVM")
		dramTh   = flag.Int("dram-promote", 0, "DRAM hot-page promotion threshold (0 = tier default; requires -dram)")
	)
	flag.Parse()

	if *list {
		for _, id := range mct.Experiments() {
			fmt.Println(id)
		}
		return
	}

	// SIGTERM too: daemon-style supervisors send it, and a graceful stop is
	// what keeps the sweep disk cache consistent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := mct.DefaultExperimentOptions()
	if *quick {
		opt = mct.QuickExperimentOptions()
	}
	if *stride > 0 {
		opt.Stride = *stride
	}
	if *acc > 0 {
		opt.Accesses = *acc
	}
	if *benches != "" {
		opt.Benchmarks = strings.Split(*benches, ",")
	}
	if *dramTh != 0 && !*dram {
		fail("flags", errors.New("-dram-promote requires -dram"))
	}
	// The tier composition rides in the simulator options, so every
	// machine of the invocation — experiments, benches, smokes — is built
	// on the same hierarchy, and sweep-cache entries stay distinct per
	// composition.
	tiers := config.TierConfig{DRAMCache: *dram, DRAMPromoteThreshold: *dramTh}
	opt.Sim.Tiers = tiers
	opt.Workers = *workers
	if !*quiet {
		opt.Events = mct.TextProgress(os.Stderr)
	}
	if *obBench {
		if err := runObsBench(ctx, *obMax); err != nil {
			fail("obs-bench", err)
		}
		return
	}
	if *profile {
		if err := runProfile(ctx, opt); err != nil {
			fail("profile", err)
		}
		return
	}
	if *memSmoke > 0 {
		if *memMax <= 0 {
			fail("mem-smoke", fmt.Errorf("-mem-smoke-alloc-max must be positive, got %d", *memMax))
		}
		if err := runMemSmoke(*memSmoke, uint64(*memMax), tiers); err != nil { //mctlint:ignore cyclecast guarded: *memMax is rejected above unless positive
			fail("mem-smoke", err)
		}
		return
	}

	rp := mct.DefaultExperimentRunParams()
	if *insts > 0 {
		rp.TotalInsts = *insts
	}
	if *quick {
		rp.TotalInsts = 8_000_000
		rp.SampleCounts = []int{10, 20, 40, 77, 120}
		rp.Trials = 2
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = mct.Experiments()
	}
	// One registry spans every experiment of the invocation; the dump it
	// yields is byte-identical at any -workers because only
	// schedule-independent instruments land in it.
	var reg *mct.Registry
	if *metrics != "" {
		reg = mct.NewRegistry()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, id := range ids {
		start := time.Now()
		ropts := []mct.Option{
			mct.WithExperimentOptions(opt), mct.WithRunParams(rp), mct.WithObserver(reg),
		}
		if !*asJSON {
			ropts = append(ropts, mct.WithOutput(os.Stdout))
		}
		rep, err := mct.RunExperiment(ctx, id, ropts...)
		if err != nil {
			fail(id, err)
		}
		if *asJSON {
			if err := enc.Encode(rep); err != nil {
				fail(id, err)
			}
		} else {
			fmt.Println()
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if reg != nil {
		if err := writeFileMkdir(*metrics, reg.DumpJSON()); err != nil {
			fail("metrics-out", err)
		}
		fmt.Fprintf(os.Stderr, "metrics dump written to %s\n", *metrics)
	}
}

// writeFileMkdir writes data to path, creating the parent directory.
func writeFileMkdir(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// runProfile runs the selected benchmarks' warm sweeps under the CPU
// profiler, then snapshots the heap, mutex-contention, and blocking
// profiles, writing all four into results/. Caches are disabled so the
// profile measures real simulation, and the sweeps are the warm-clone sweeps
// perfbench's sweep workload times — profile what you optimize. The mutex
// and block profiles are the contention side of the story: the parallel
// engine's fan-out is supposed to synchronize only at batch boundaries, and
// these profiles are where a lock that crept onto the hot path shows up.
func runProfile(ctx context.Context, opt experiments.Options) error {
	if err := os.Unsetenv("MCT_SWEEP_CACHE"); err != nil {
		return err
	}
	experiments.ResetSweepCache()
	cpuPath := filepath.Join("results", "PROFILE_cpu.pprof")
	heapPath := filepath.Join("results", "PROFILE_heap.pprof")
	mutexPath := filepath.Join("results", "PROFILE_mutex.pprof")
	blockPath := filepath.Join("results", "PROFILE_block.pprof")
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	// Sample every mutex-contention event and every blocking event for the
	// duration of the profiled sweeps; both collectors are off by default.
	runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)
	cf, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close() //mctlint:ignore uncheckederr the profiler start error is the one worth reporting
		return err
	}
	t0 := time.Now()
	for _, bench := range opt.Benchmarks {
		if _, err := experiments.RunSweep(ctx, bench, false, opt); err != nil {
			pprof.StopCPUProfile()
			cf.Close() //mctlint:ignore uncheckederr the sweep error is the one worth reporting
			return err
		}
	}
	pprof.StopCPUProfile()
	if err := cf.Close(); err != nil {
		return err
	}
	// Heap profile after a GC: what the sweeps left live, without transient
	// garbage — the number the O(batch) memory claim is about.
	runtime.GC()
	hf, err := os.Create(heapPath)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(hf); err != nil {
		hf.Close() //mctlint:ignore uncheckederr the profile write error is the one worth reporting
		return err
	}
	if err := hf.Close(); err != nil {
		return err
	}
	for _, p := range []struct{ name, path string }{
		{"mutex", mutexPath},
		{"block", blockPath},
	} {
		if err := writeLookupProfile(p.name, p.path); err != nil {
			return err
		}
	}
	fmt.Printf("profiled %d benchmark sweeps in %v\nwrote %s, %s, %s and %s\n",
		len(opt.Benchmarks), time.Since(t0).Round(time.Millisecond),
		cpuPath, heapPath, mutexPath, blockPath)
	fmt.Printf("inspect with: go tool pprof %s\n", cpuPath)
	return nil
}

// writeLookupProfile dumps one of the runtime's named profiles (mutex,
// block, ...) to path in pprof proto form.
func writeLookupProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("no %s profile registered", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close() //mctlint:ignore uncheckederr the profile write error is the one worth reporting
		return err
	}
	return f.Close()
}

// runMemSmoke streams n accesses through a single evaluation and fails
// unless cumulative heap allocation stays under maxAlloc bytes. A
// materialize-everything pipeline cannot pass at large n: the trace slice
// alone allocates n × 24 bytes (1.2 GB at n=50M), while the streaming
// pipeline allocates machine construction plus a fixed batch buffer,
// independent of n.
func runMemSmoke(n int, maxAlloc uint64, tiers config.TierConfig) error {
	simOpt := sim.DefaultOptions()
	simOpt.Tiers = tiers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	met, err := sim.Evaluate("lbm", n, config.Default(), simOpt)
	if err != nil {
		return err
	}
	sec := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	naive := uint64(n) * 24 //mctlint:ignore cyclecast n is a validated positive flag
	hier := "llc>nvm"
	if tiers.DRAMCache {
		hier = "llc>dram>nvm"
	}
	fmt.Printf("mem-smoke: %d accesses in %.1fs (%.1f M acc/s), IPC %.3f, hierarchy %s\n",
		n, sec, float64(n)/sec/1e6, met.IPC, hier)
	fmt.Printf("mem-smoke: allocated %.1f MiB cumulative (limit %.1f MiB; materialized trace alone would be %.1f MiB), live heap %.1f MiB\n",
		float64(grew)/(1<<20), float64(maxAlloc)/(1<<20), float64(naive)/(1<<20), float64(after.HeapAlloc)/(1<<20))
	if lim := os.Getenv("GOMEMLIMIT"); lim != "" {
		fmt.Printf("mem-smoke: ran under GOMEMLIMIT=%s\n", lim)
	}
	if grew > maxAlloc {
		return fmt.Errorf("cumulative allocation %d bytes exceeds the %d-byte gate: the pipeline is not memory-bounded", grew, maxAlloc)
	}
	return nil
}

// obsBenchReport is the results/BENCH_obs.json payload.
type obsBenchReport struct {
	Benchmark          string  `json:"benchmark"`
	Insts              uint64  `json:"insts"`
	Trials             int     `json:"trials"`
	BareSeconds        float64 `json:"bare_seconds"`
	InstrumentedSecond float64 `json:"instrumented_seconds"`
	Overhead           float64 `json:"overhead"`
	MaxOverhead        float64 `json:"max_overhead"`
	Identical          bool    `json:"identical"`
	Pass               bool    `json:"pass"`
}

// runObsBench times the identical MCT runtime run with and without a
// metrics registry attached (best of three trials per arm), verifies the
// two runs produce identical results, records the comparison in
// results/BENCH_obs.json, and fails when the instrumented run exceeds the
// tolerated slowdown.
func runObsBench(ctx context.Context, maxOverhead float64) error {
	// Long enough that each arm runs for a substantial fraction of a
	// second: the gate compares wall clocks, and sub-100ms arms would put
	// scheduler noise on the same order as the tolerance.
	const (
		bench  = "lbm"
		insts  = 15_000_000
		trials = 3
	)
	obj := mct.DefaultObjective(8)

	run := func(instrumented bool) (mct.Result, float64, error) {
		best := 0.0
		var res mct.Result
		for t := 0; t < trials; t++ {
			var opts []mct.Option
			if instrumented {
				opts = append(opts, mct.WithObserver(mct.NewRegistry()))
			}
			t0 := time.Now()
			m, err := mct.NewMachine(ctx, bench, mct.StaticBaseline(), opts...)
			if err != nil {
				return res, 0, err
			}
			rt, err := mct.NewRuntime(ctx, m, obj, opts...)
			if err != nil {
				return res, 0, err
			}
			r, err := rt.Run(insts)
			if err != nil {
				return res, 0, err
			}
			sec := time.Since(t0).Seconds()
			if t == 0 || sec < best {
				best = sec
			}
			res = r
		}
		return res, best, nil
	}

	bareRes, bareSec, err := run(false)
	if err != nil {
		return err
	}
	instRes, instSec, err := run(true)
	if err != nil {
		return err
	}

	rep := obsBenchReport{
		Benchmark:          bench,
		Insts:              insts,
		Trials:             trials,
		BareSeconds:        bareSec,
		InstrumentedSecond: instSec,
		Overhead:           instSec/bareSec - 1,
		MaxOverhead:        maxOverhead,
		Identical:          reflect.DeepEqual(bareRes, instRes),
	}
	rep.Pass = rep.Identical && rep.Overhead <= maxOverhead
	fmt.Printf("obs-bench %s (%d insts, best of %d): bare %.3fs  instrumented %.3fs  overhead %+.2f%%  identical=%v\n",
		bench, uint64(insts), trials, bareSec, instSec, 100*rep.Overhead, rep.Identical)

	out := filepath.Join("results", "BENCH_obs.json")
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileMkdir(out, append(data, '\n')); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if !rep.Identical {
		return fmt.Errorf("instrumented run diverged from bare run (observability must not perturb simulation)")
	}
	if !rep.Pass {
		return fmt.Errorf("observability overhead %.2f%% exceeds the %.2f%% gate", 100*rep.Overhead, 100*maxOverhead)
	}
	return nil
}

// fail reports an experiment error and exits. Interruption (ctrl-C) is
// reported distinctly — completed sweeps remain cached on disk — and uses
// the conventional 130 exit status.
func fail(id string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "mctbench: %s interrupted; completed sweeps remain cached\n", id)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "mctbench: %s: %v\n", id, err)
	os.Exit(1)
}
