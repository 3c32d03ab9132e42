package sim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mct/internal/config"
	"mct/internal/dram"
	"mct/internal/lane"
	"mct/internal/trace"
)

// runWindow drives n accesses and returns the window metrics (the full
// observable surface of a machine run).
func runWindow(m *Machine, n int) Metrics {
	return m.RunAccesses(n)
}

// TestMachineCloneEquivalence: a clone taken mid-run and a fresh machine
// replayed to the same point produce byte-identical metrics for the next
// window — the central acceptance criterion of the snapshot contract.
func TestMachineCloneEquivalence(t *testing.T) {
	opt := quickOptions()
	build := func() *Machine {
		m, err := NewMachine(mustSpec(t, "ocean"), config.StaticBaseline(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	a := build()
	runWindow(a, 30_000) // advance mid-run

	cl := a.Clone()

	b := build() // fresh replay to the same point
	runWindow(b, 30_000)

	wantA := runWindow(a, 20_000)
	gotClone := runWindow(cl, 20_000)
	gotFresh := runWindow(b, 20_000)

	if !reflect.DeepEqual(wantA, gotClone) {
		t.Errorf("clone metrics diverged from parent\nparent: %+v\nclone:  %+v", wantA, gotClone)
	}
	if !reflect.DeepEqual(wantA, gotFresh) {
		t.Errorf("fresh replay diverged from original run\noriginal: %+v\nreplay:   %+v", wantA, gotFresh)
	}
}

// TestMachineCloneIsolation: running and reconfiguring a clone never
// perturbs the parent — the parent's next window is identical whether or
// not the clone was churned (checked against a second pristine clone).
func TestMachineCloneIsolation(t *testing.T) {
	m, err := NewMachine(mustSpec(t, "gups"), config.StaticBaseline(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	runWindow(m, 25_000)

	ref := m.Clone() // pristine twin of the parent's state
	churn := m.Clone()
	if err := churn.SetConfig(config.Default()); err != nil {
		t.Fatal(err)
	}
	runWindow(churn, 40_000)

	want := runWindow(ref, 15_000)
	got := runWindow(m, 15_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("clone activity perturbed the parent\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestMultiMachineCloneEquivalence mirrors the single-core contract for the
// shared-LLC multi-program machine.
func TestMultiMachineCloneEquivalence(t *testing.T) {
	specs, err := trace.MixByName(trace.MixNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultMultiOptions()
	opt.Seed = 3
	m, err := NewMultiMachine(specs, config.StaticBaseline(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(20_000)

	cl := m.Clone()
	want := m.RunInstructions(200_000)
	got := cl.RunInstructions(200_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("multi-machine clone diverged\nparent: %+v\nclone:  %+v", want, got)
	}
}

// TestMultiMachineCloneIsolation: churning a multi-machine clone leaves the
// parent identical to a pristine twin.
func TestMultiMachineCloneIsolation(t *testing.T) {
	specs, err := trace.MixByName(trace.MixNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultMultiOptions()
	opt.Seed = 4
	m, err := NewMultiMachine(specs, config.StaticBaseline(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(15_000)

	ref := m.Clone()
	churn := m.Clone()
	churn.RunInstructions(300_000)

	want := ref.RunInstructions(150_000)
	got := m.RunInstructions(150_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("clone activity perturbed the multi-machine parent\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestMachineSnapshotRoundTrip: RestoreMachine(m.Snapshot()) continues the
// identical simulation.
func TestMachineSnapshotRoundTrip(t *testing.T) {
	m, err := NewMachine(mustSpec(t, "leslie3d"), config.StaticBaseline(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	runWindow(m, 30_000)

	r, err := RestoreMachine(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := runWindow(m, 20_000)
	got := runWindow(r, 20_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("snapshot round trip diverged\noriginal: %+v\nrestored: %+v", want, got)
	}
}

// TestCheckpointSaveLoad: the on-disk gob round trip preserves the exact
// simulation, and the loader rejects garbage and wrong versions.
func TestCheckpointSaveLoad(t *testing.T) {
	m, err := NewMachine(mustSpec(t, "ocean"), config.StaticBaseline(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	runWindow(m, 30_000)

	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "ckpt.gob")
	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions() != m.Instructions() || r.Config() != m.Config() {
		t.Fatalf("loaded machine out of sync: %d insts vs %d", r.Instructions(), m.Instructions())
	}
	want := runWindow(m, 20_000)
	got := runWindow(r, 20_000)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("checkpoint round trip diverged\noriginal: %+v\nloaded:   %+v", want, got)
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.gob")); err == nil {
		t.Error("missing checkpoint loaded")
	}
	garbage := filepath.Join(dir, "garbage.gob")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(garbage); err == nil {
		t.Error("garbage checkpoint loaded")
	}
}

// TestRestoreMachineRejectsCorruptState feeds machine states with one
// corrupted cross-field invariant to the restore path. Each used to load
// and leave the step loop to trip over it later (a bad token panics in
// Read); each must now fail at restore.
func TestRestoreMachineRejectsCorruptState(t *testing.T) {
	m, err := NewMachine(mustSpec(t, "lbm"), config.StaticBaseline(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	runWindow(m, 30_000)
	tiered := mustTiered(t, "lbm", config.StaticBaseline())
	runWindow(tiered, 30_000)
	for _, mm := range []*Machine{m, tiered} {
		if _, err := RestoreMachine(mm.Snapshot()); err != nil {
			t.Fatalf("valid state rejected: %v", err)
		}
	}
	good := m.Snapshot()
	opBank := -1
	for i, b := range good.Ctrl.Banks {
		if b.Op != nil {
			opBank = i
			break
		}
	}
	if opBank < 0 {
		t.Fatal("the run left no write in flight to corrupt")
	}

	cases := []struct {
		name    string
		m       *Machine
		corrupt func(st *MachineState)
	}{
		{"controller write queue length", m, func(st *MachineState) { st.Ctrl.WriteQLen += 3 }},
		{"controller eager queue length", m, func(st *MachineState) { st.Ctrl.EagerQLen += 3 }},
		{"in-flight token out of range", m, func(st *MachineState) { st.Ctrl.Banks[opBank].Op.Token = len(st.Ctrl.Tokens) }},
		{"LLC line dirty but not valid", m, func(st *MachineState) { st.LLC.Tags[0], st.LLC.State[0] = 1, lane.Dirty }},
		{"LLC line record dirty but not valid", m, func(st *MachineState) {
			*st = recordForm(*st)
			st.LLC.Lines[0] = lane.LineState{Tag: 1, Dirty: true}
		}},
		{"LLC lane lengths disagree with geometry", m, func(st *MachineState) { st.LLC.Tags = st.LLC.Tags[:len(st.LLC.Tags)-1] }},
		{"DRAM line dirty but not valid", tiered, func(st *MachineState) { st.DRAM.State[0] = lane.Dirty }},
		{"DRAM line record dirty but not valid", tiered, func(st *MachineState) {
			*st = recordForm(*st)
			st.DRAM.Lines[0] = lane.LineState{Tag: 1, Dirty: true}
		}},
		{"DRAM lane lengths disagree with geometry", tiered, func(st *MachineState) {
			st.DRAM.State = st.DRAM.State[:len(st.DRAM.State)/2]
			st.DRAM.HotCounts = st.DRAM.HotCounts[:1]
		}},
		{"core clock not finite", m, func(st *MachineState) { st.CPUCycles = math.Inf(1) }},
		{"core clock past its bound", m, func(st *MachineState) { st.CPUCycles = 1e300 }},
		{"window start after the clock", m, func(st *MachineState) { st.WinStartCycles = st.CPUCycles + 1 }},
		{"generator phase index out of range", m, func(st *MachineState) { st.Gen.PhaseIdx = len(st.Gen.Spec.Phases) }},
		{"extra core generator without phases", m, func(st *MachineState) {
			st.Cores = []CoreState{{Gen: st.Gen}}
			st.Cores[0].Gen.Spec.Phases = nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.m.Snapshot()
			tc.corrupt(&st)
			if _, err := RestoreMachine(st); err == nil {
				t.Error("corrupt state restored")
			}
		})
	}
}

// recordForm rewrites st into the record shape that checkpoints had before
// the line lanes: LLC.Lines, DRAM.Lines and DRAM.Hot filled, every lane
// empty.
func recordForm(st MachineState) MachineState {
	llc := st.LLC
	llc.Lines = lane.ToRecords(llc.Tags, llc.State)
	llc.Tags, llc.State = nil, nil
	st.LLC = llc
	if st.DRAM != nil {
		d := *st.DRAM
		d.Lines = lane.ToRecords(d.Tags, d.State)
		d.Hot = make([]dram.HotEntry, len(d.HotPages))
		for i, page := range d.HotPages {
			d.Hot[i] = dram.HotEntry{Page: page, Count: d.HotCounts[i], Epoch: d.HotEpochs[i]}
		}
		d.Tags, d.State, d.HotPages, d.HotCounts, d.HotEpochs = nil, nil, nil, nil, nil
		st.DRAM = &d
	}
	return st
}

// TestLoadCheckpointReadsRecordForm: a checkpoint file whose line state is
// in the record form written before the lanes existed (LLC.Lines,
// DRAM.Lines, DRAM.Hot) still loads, under the same envelope version, and
// continues byte-identically to a clone of the machine it was taken from.
func TestLoadCheckpointReadsRecordForm(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *Machine
	}{
		{"nvm-only", mustMachine(t, "lbm", config.StaticBaseline())},
		{"dram-tier", mustTiered(t, "lbm", config.StaticBaseline())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			m.RunInstructions(300_000)
			m.StepInstructions(123_457) // cut mid-window
			old := recordForm(m.Snapshot())
			if len(old.LLC.Tags) != 0 || len(old.LLC.Lines) == 0 {
				t.Fatal("record-form state still carries LLC lanes")
			}
			path := filepath.Join(t.TempDir(), "old.ckpt")
			if err := writeCheckpoint(path, old); err != nil {
				t.Fatal(err)
			}
			r, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			src, got := m.Snapshot(), r.Snapshot()
			if !reflect.DeepEqual(src.LLC, got.LLC) || !reflect.DeepEqual(src.DRAM, got.DRAM) {
				t.Fatal("record-form checkpoint restored different line state")
			}
			want := m.Clone()
			want.StepInstructions(200_000)
			r.StepInstructions(200_000)
			if w, g := fmt.Sprintf("%+v", want.WindowMetrics()), fmt.Sprintf("%+v", r.WindowMetrics()); w != g {
				t.Errorf("record-form checkpoint diverged\nsource clone: %s\nloaded:       %s", w, g)
			}
		})
	}
}

// TestLoadCheckpointReadsRecordFiles: checkpoint files written before the
// line lanes existed still load and continue exactly. Each
// testdata/records-*.ckpt was saved by that encoder mid-window, from ocean
// on a small NVM-only or DRAM-tier machine under config.Default(), and its
// .txt holds the window metrics that machine printed 200,000 instructions
// later.
func TestLoadCheckpointReadsRecordFiles(t *testing.T) {
	for _, name := range []string{"nvm", "dram"} {
		t.Run(name, func(t *testing.T) {
			m, err := LoadCheckpoint(filepath.Join("testdata", "records-"+name+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "records-"+name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			m.StepInstructions(200_000)
			if got := fmt.Sprintf("%+v\n", m.WindowMetrics()); got != string(want) {
				t.Errorf("record-form file diverged\nwant: %s got:  %s", want, got)
			}
		})
	}
}

// TestPreparedWarmColdEquivalence: the warm-clone fast path and the
// cold-rebuild reference path agree exactly for a spread of configurations
// — the acceptance criterion of the warm-start sweep refactor.
func TestPreparedWarmColdEquivalence(t *testing.T) {
	p, err := Prepare("lbm", 20_000, 6_000, quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	space := config.NewSpace(config.SpaceOptions{IncludeWearQuota: true, WearQuotaTarget: 8})
	cfgs := []config.Config{config.Default(), config.StaticBaseline()}
	for i := 0; i < space.Len(); i += space.Len() / 8 {
		cfgs = append(cfgs, space.At(i))
	}
	for _, cfg := range cfgs {
		warm, err := p.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.EvaluateCold(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("config %+v: warm-clone and cold-rebuild metrics differ\nwarm: %+v\ncold: %+v", cfg, warm, cold)
		}
	}
}

func mustSpec(t testing.TB, name string) trace.Spec {
	t.Helper()
	spec, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
