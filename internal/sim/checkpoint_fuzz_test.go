package sim

import (
	"os"
	"path/filepath"
	"testing"

	"mct/internal/config"
	"mct/internal/dram"
)

// FuzzLoadCheckpoint feeds arbitrary checkpoint file bytes to
// LoadCheckpoint. Every input must either be rejected with an error or
// restore a machine that steps without panicking: restore validates every
// invariant the step loop relies on. The seeds are freshly written
// checkpoints of a small NVM-only machine and a small DRAM-tier machine,
// plus the DRAM-tier one in the record form of older checkpoints; the
// geometries are shrunk so mutated inputs stay cheap to decode.
//
// `go test` runs the seeds; `make fuzz-smoke` fuzzes for 30 s. It sets
// -fuzzminimizetime 1x because minimizing each new interesting input for
// the default 60 s would stall a short run after its first few finds.
func FuzzLoadCheckpoint(f *testing.F) {
	small := DefaultOptions()
	small.CacheBytes = 16 << 10
	nvmOnly, err := NewMachine(mustSpec(f, "lbm"), config.StaticBaseline(), small)
	if err != nil {
		f.Fatal(err)
	}
	small.Tiers = config.TierConfig{DRAMCache: true, DRAMPromoteThreshold: 1}
	small.DRAM = dram.DefaultParams()
	small.DRAM.CacheBytes = 32 << 10
	small.DRAM.HotTableSize = 64
	tiered, err := NewMachine(mustSpec(f, "lbm"), config.StaticBaseline(), small)
	if err != nil {
		f.Fatal(err)
	}
	nvmOnly.RunAccesses(5_000)
	tiered.RunAccesses(5_000)
	dir := f.TempDir()
	for i, st := range []MachineState{nvmOnly.Snapshot(), tiered.Snapshot(), recordForm(tiered.Snapshot())} {
		path := filepath.Join(dir, "seed.ckpt")
		if err := writeCheckpoint(path, st); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err != nil {
			f.Fatalf("seed %d does not load: %v", i, err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		m.StepInstructions(10_000)
	})
}
