package sim

import (
	"path/filepath"
	"reflect"
	"testing"

	"mct/internal/config"
	"mct/internal/stats"
	"mct/internal/trace"
)

func mustMulti(t *testing.T, mix string, cfg config.Config) *Machine {
	t.Helper()
	mm, err := NewMultiMachine(mustMix(t, mix), cfg, DefaultMultiOptions())
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

func TestMultiOptions(t *testing.T) {
	o := DefaultMultiOptions()
	if o.CacheBytes != 8<<20 || o.Params.Banks != 32 {
		t.Fatalf("multi options wrong: %+v", o)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiMachine(nil, config.Default(), o); err == nil {
		t.Fatal("zero cores must fail")
	}
}

// TestMultiMachineSpecCount: the core count is the number of specs.
func TestMultiMachineSpecCount(t *testing.T) {
	specs, _ := trace.MixByName("mix1")
	m, err := NewMultiMachine(specs[:2], config.Default(), DefaultMultiOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.cores) != 2 {
		t.Fatalf("%d specs built %d cores", 2, len(m.cores))
	}
	// A prepared workload replays one core's stream; a multi-core machine
	// (say, from a checkpoint) must be refused, not measured as core 0.
	if _, err := PreparedFromMachine(m, 0, 1000); err == nil {
		t.Fatal("PreparedFromMachine adopted a multi-core machine")
	}
}

func TestMultiRunBasics(t *testing.T) {
	mm := mustMulti(t, "mix1", config.StaticBaseline())
	mm.Warmup(240_000)
	w := mm.RunInstructions(400_000)
	perCore := mm.windowCoreIPC()
	if len(perCore) != 4 {
		t.Fatalf("per-core IPCs: %v", perCore)
	}
	for i, ipc := range perCore {
		if ipc <= 0 {
			t.Fatalf("core %d IPC = %v", i, ipc)
		}
	}
	if got := stats.GeoMean(perCore); got != w.IPC {
		t.Fatalf("IPC %v != geomean %v", w.IPC, got)
	}
	if w.Instructions < 400_000 {
		t.Fatalf("total insts %d < target", w.Instructions)
	}
	if w.MemWrites == 0 || w.LifetimeYears >= 1000 {
		t.Fatalf("shared memory saw no writes: %+v", w.Vector())
	}
	for name, r := range map[string]float64{"LLCHitRate": w.LLCHitRate, "RowHitRate": w.RowHitRate} {
		if r <= 0 || r >= 1 {
			t.Errorf("%s = %v, want in (0,1)", name, r)
		}
	}
}

func TestMultiDeterministic(t *testing.T) {
	a := mustMulti(t, "mix3", config.Default())
	b := mustMulti(t, "mix3", config.Default())
	wa := a.RunInstructions(200_000)
	wb := b.RunInstructions(200_000)
	if wa.IPC != wb.IPC || wa.EnergyJ != wb.EnergyJ {
		t.Fatal("multicore run nondeterministic")
	}
}

func TestMultiCoresShareMemoryPressure(t *testing.T) {
	// The same benchmark alone vs alongside heavy co-runners: shared
	// contention must reduce its IPC.
	specs, _ := trace.MixByName("mix1") // contains stream
	mm, err := NewMultiMachine(specs, config.Default(), DefaultMultiOptions())
	if err != nil {
		t.Fatal(err)
	}
	mm.Warmup(240_000)
	mm.RunInstructions(800_000)
	shared := mm.windowCoreIPC()[0]

	solo, err := NewMachine(specs[0], config.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	solo.Warmup(60_000)
	alone := solo.RunInstructions(200_000)
	if shared >= alone.IPC {
		t.Fatalf("co-running %s should cost IPC: %v shared vs %v alone",
			specs[0].Name, shared, alone.IPC)
	}
}

func TestMultiSetConfig(t *testing.T) {
	mm := mustMulti(t, "mix2", config.Default())
	if err := mm.SetConfig(config.StaticBaseline()); err != nil {
		t.Fatal(err)
	}
	if mm.Config().SlowLatency != 3.0 {
		t.Fatal("config not applied")
	}
	if len(mm.cores) != 4 {
		t.Fatal("mix machine does not have 4 cores")
	}
}

// TestMultiStepInstructionsCheckpointEquivalence: a 4-core run split by a
// save/load cycle finishes exactly where the uninterrupted run does —
// every core's generator, clock and window marks ride the checkpoint.
func TestMultiStepInstructionsCheckpointEquivalence(t *testing.T) {
	const a, b = 150_000, 250_000
	ref := mustMulti(t, "mix2", config.StaticBaseline())
	ref.Warmup(60_000)
	ref.StepInstructions(a + b)

	m := mustMulti(t, "mix2", config.StaticBaseline())
	m.Warmup(60_000)
	m.StepInstructions(a)
	path := filepath.Join(t.TempDir(), "multi.ckpt")
	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cores) != 4 {
		t.Fatalf("checkpoint restored %d cores, want 4", len(r.cores))
	}
	// Ask for what remains of a+b: the first chunk may overshoot a.
	r.StepInstructions(a + b - r.WindowInstructions())

	if got, want := formatMetrics(r.WindowMetrics()), formatMetrics(ref.WindowMetrics()); got != want {
		t.Fatalf("checkpointed 4-core run drifted from the straight run\n got %s\nwant %s", got, want)
	}
	if !reflect.DeepEqual(r.WindowMetrics(), ref.WindowMetrics()) {
		t.Fatal("checkpointed 4-core run's window metrics differ from the straight run's")
	}
	if !reflect.DeepEqual(r.Snapshot(), ref.Snapshot()) {
		t.Fatal("checkpointed 4-core machine state differs from the straight run's")
	}
}
