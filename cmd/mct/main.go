// Command mct runs Memory Cocktail Therapy on one workload and reports the
// learning outcome: the chosen configuration, the sampling overhead, the
// testing-period metrics, and the comparison against the default system and
// the static baseline on the identical workload.
//
// Usage:
//
//	mct -benchmark lbm -lifetime 8 -insts 15000000
//	mct -benchmark ocean -phases            # with phase detection
//	mct -mix mix1                           # 4-core multi-program run
//	mct -benchmark lbm -checkpoint-save results/lbm.ckpt
//	mct -checkpoint-load results/lbm.ckpt   # resume the saved machine
//
// Checkpoints capture the machine's complete state (trace position, PRNG
// stream, cache contents, controller queues and wear): a run resumed from
// -checkpoint-load continues the exact simulation the saved run would have
// executed, for single benchmarks and -mix runs alike.
//
// The reference runs (default system, static baseline) execute concurrently
// with the MCT run on separate simulated machines; -workers bounds that
// parallelism. Ctrl-C cancels between simulation stages.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mct"
	"mct/api"
	"mct/internal/engine"
	"mct/internal/server"
)

// refRun is one finished reference simulation.
type refRun struct {
	label string
	m     mct.Metrics
}

func main() {
	var (
		bench    = flag.String("benchmark", "lbm", "workload (see -list)")
		mix      = flag.String("mix", "", "multi-program mix (overrides -benchmark)")
		list     = flag.Bool("list", false, "list workloads and mixes")
		lifetime = flag.Float64("lifetime", 8, "minimum lifetime target in years")
		insts    = flag.Uint64("insts", 15_000_000, "instructions to execute")
		model    = flag.String("model", "gboost", "predictor: gboost or quadratic-lasso")
		phases   = flag.Bool("phases", false, "enable phase detection")
		workers  = flag.Int("workers", 0, "parallel reference-run workers (0 = GOMAXPROCS)")
		ckptSave = flag.String("checkpoint-save", "", "save the machine state to this file after the run")
		ckptLoad = flag.String("checkpoint-load", "", "resume from a machine checkpoint instead of a fresh machine")
		metrics  = flag.String("metrics-out", "", "write a sorted JSON metrics dump (cache/nvm/core/engine families) to this file after the run")
		dram     = flag.Bool("dram", false, "insert the DRAM cache tier between LLC and NVM (hybrid hierarchy)")
		dramTh   = flag.Int("dram-promote", 0, "DRAM hot-page promotion threshold (0 = tier default; requires -dram)")
		jobSpec  = flag.String("job", "", "execute a job spec JSON (api.JobSpec) synchronously and write its artifact")
		jobOut   = flag.String("job-out", "", "artifact output path for -job (default stdout)")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:", mct.Benchmarks())
		fmt.Println("mixes:     ", mct.Mixes())
		return
	}

	// SIGTERM too: daemon-style supervisors send it, and a graceful stop is
	// what keeps checkpoints and sweep caches consistent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *jobSpec != "" {
		runJob(ctx, *jobSpec, *jobOut, *workers)
		return
	}

	obj := mct.DefaultObjective(*lifetime)
	ro := mct.DefaultRuntimeOptions()
	ro.Model = *model
	ro.EnablePhaseDetection = *phases

	if *mix != "" && *ckptLoad != "" {
		fail(errors.New("a checkpoint carries its own workloads; drop -mix or -checkpoint-load"))
	}
	if *dramTh != 0 && !*dram {
		fail(errors.New("-dram-promote requires -dram"))
	}
	if *dram && *ckptLoad != "" {
		fail(errors.New("a checkpoint carries its own tier composition; drop -dram or -checkpoint-load"))
	}
	// tiers is the hierarchy composition every machine of this run is built
	// with (MCT run and reference runs alike, so the comparison is fair).
	tiers := mct.TierConfig{DRAMCache: *dram, DRAMPromoteThreshold: *dramTh}

	// One registry serves every layer of the run: the machine's cache/nvm
	// families, the runtime's core family, and the reference-run engine
	// fan-out. Only schedule-independent instruments land in the stable
	// dump, so the -metrics-out file is byte-identical at any -workers.
	var reg *mct.Registry
	if *metrics != "" {
		reg = mct.NewRegistry()
	}

	// Kick off the reference runs (single-core only) so they overlap the
	// MCT run below; results are collected after the MCT output prints. A
	// resumed machine starts mid-trace, so fresh reference runs would not be
	// comparable and are skipped.
	var refCh chan refResult
	if *mix == "" && *ckptLoad == "" {
		refCh = startReferenceRuns(ctx, *bench, *insts, *workers, tiers, reg)
	}

	var (
		m *mct.Machine
		e error
	)
	switch {
	case *ckptLoad != "":
		m, e = mct.LoadCheckpoint(*ckptLoad)
		// The loaded machine is already warm; the runtime's own warmup
		// would advance it past the saved point.
		ro.WarmupAccesses = 0
		// A checkpoint written under -metrics-out carries its registry;
		// resuming continues the same counters so the final dump matches
		// an uninterrupted run.
		if e == nil && reg != nil && m.Observer() != nil {
			reg = m.Observer()
		}
	case *mix != "":
		m, e = mct.NewMixMachine(ctx, *mix, mct.StaticBaseline(), mct.WithTiers(tiers), mct.WithObserver(reg))
	default:
		m, e = mct.NewMachine(ctx, *bench, mct.StaticBaseline(), mct.WithTiers(tiers), mct.WithObserver(reg))
	}
	if e != nil {
		fail(e)
	}
	if *ckptLoad != "" {
		fmt.Printf("resumed from %s (%d instructions executed)\n", *ckptLoad, m.Instructions())
	}
	rt, e := mct.NewRuntime(ctx, m, obj, mct.WithRuntimeOptions(ro), mct.WithObserver(reg))
	if e != nil {
		fail(e)
	}
	res, err := rt.Run(*insts)
	if err != nil {
		fail(err)
	}
	if *ckptSave != "" {
		if e := mct.SaveCheckpoint(*ckptSave, m); e != nil {
			fail(e)
		}
		fmt.Fprintf(os.Stderr, "checkpoint saved to %s\n", *ckptSave)
	}
	m.SyncObserver()

	name := *bench
	switch {
	case *ckptLoad != "":
		name = *ckptLoad
	case *mix != "":
		name = *mix
	}
	fmt.Printf("MCT on %s (%d instructions, %gy lifetime target, model %s)\n\n", name, *insts, *lifetime, *model)
	for i, ph := range res.Phases {
		fmt.Printf("phase %d:\n", i+1)
		fmt.Printf("  baseline window: IPC=%.3f  lifetime=%.2fy  energy=%.4gJ\n",
			ph.Baseline.IPC, ph.Baseline.LifetimeYears, ph.Baseline.EnergyJ)
		fmt.Printf("  sampling period: IPC=%.3f (overhead of exercising %d samples)\n",
			ph.Sampling.IPC, len(ph.Decision.SampleIndices))
		fmt.Printf("  chosen config:   %v (constraints satisfiable per prediction: %v)\n",
			ph.Decision.Chosen, ph.Decision.Satisfied)
		fmt.Printf("  testing period:  IPC=%.3f  lifetime=%.2fy  energy=%.4gJ  reverted=%v\n",
			ph.Testing.IPC, ph.Testing.LifetimeYears, ph.Testing.EnergyJ, ph.Reverted)
	}
	fmt.Printf("\noverall: IPC=%.3f  lifetime=%.2fy  energy=%.4gJ  (phases=%d, health reverts=%d)\n",
		res.Overall.IPC, res.Overall.LifetimeYears, res.Overall.EnergyJ, len(res.Phases), res.HealthReverts)

	if refCh != nil {
		ref := <-refCh
		if ref.err != nil {
			fail(ref.err)
		}
		for _, r := range ref.runs {
			fmt.Printf("%s: IPC=%.3f  lifetime=%.2fy  energy=%.4gJ\n",
				r.label, r.m.IPC, r.m.LifetimeYears, r.m.EnergyJ)
		}
	}

	// Written last so the engine counters of the reference fan-out are
	// complete.
	if reg != nil {
		if e := os.WriteFile(*metrics, reg.DumpJSON(), 0o644); e != nil {
			fail(e)
		}
		fmt.Fprintf(os.Stderr, "metrics dump written to %s\n", *metrics)
	}
}

// refResult carries the reference runs (in presentation order) or the first
// error.
type refResult struct {
	runs []refRun
	err  error
}

// startReferenceRuns launches the default-system and static-baseline runs
// on the identical workload in the background and returns a channel with
// the ordered results.
func startReferenceRuns(ctx context.Context, bench string, insts uint64, workers int, tiers mct.TierConfig, reg *mct.Registry) chan refResult {
	refs := []struct {
		label string
		cfg   mct.Config
	}{{"default", mct.DefaultConfig()}, {"static ", mct.StaticBaseline()}}

	ch := make(chan refResult, 1)
	go func() {
		// The reference machines carry no per-machine observer (their
		// gauges would race the main run's); the registry only collects
		// the engine fan-out's deterministic counters here.
		runs, err := engine.Map(ctx, len(refs), engine.Options{Workers: workers, Obs: reg},
			func(ctx context.Context, i int) (refRun, error) {
				m, err := mct.NewMachine(ctx, bench, refs[i].cfg, mct.WithTiers(tiers))
				if err != nil {
					return refRun{}, err
				}
				m.Warmup(60_000)
				return refRun{label: refs[i].label, m: m.RunInstructions(insts)}, nil
			})
		ch <- refResult{runs: runs, err: err}
	}()
	return ch
}

// runJob is the CLI twin of one daemon job: the same api.JobSpec document
// through the same executor, minus queueing and persistence. For one spec
// the artifact bytes match the daemon's — byte-identical at any -workers —
// which is what CI's serve-smoke cmp relies on.
func runJob(ctx context.Context, specPath, outPath string, workers int) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fail(err)
	}
	spec, err := api.DecodeJobSpec(data)
	if err != nil {
		fail(err)
	}
	artifact, err := server.Execute(ctx, spec, server.ExecOptions{Workers: workers})
	if err != nil {
		fail(err)
	}
	if outPath == "" {
		os.Stdout.Write(artifact)
		return
	}
	if err := os.WriteFile(outPath, artifact, 0o644); err != nil {
		fail(err)
	}
}

func fail(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "mct: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "mct:", err)
	os.Exit(1)
}
