// Snapshot support for machines: deep-copy cloning (warm-start sweeps,
// speculative what-if branches) and versioned on-disk checkpoints
// (pausable/resumable long runs).
//
// The snapshot contract (see DESIGN.md): Clone shares nothing mutable with
// its parent — every layer (each core's trace generator incl. PRNG
// position and clock, the shared LLC, DRAM tier and NVM controller, window
// bookkeeping stats) is deep-copied, so a clone replayed over the same
// accesses produces byte-identical metrics while the parent stays frozen.
package sim

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"mct/internal/cache"
	"mct/internal/dram"
	"mct/internal/hierarchy"
	"mct/internal/nvm"
	"mct/internal/obs"
	"mct/internal/trace"
)

// Clone returns an independent deep copy of the machine: both continue the
// identical simulation from the current point, and stepping one never
// perturbs the other. Options are pure values and copy by assignment.
func (m *Machine) Clone() *Machine {
	n := *m
	// The scratch batch buffer is per-machine: dropping it here makes the
	// clone allocate its own on first streaming run. Copying the slice
	// header would share the backing array, a data race under concurrent
	// Prepared.Evaluate.
	n.batch = nil
	n.cores = make([]coreState, len(m.cores))
	for i, c := range m.cores {
		c.gen = c.gen.Clone()
		n.cores[i] = c
	}
	n.llc = m.llc.Clone()
	n.ctrl = m.ctrl.Clone()
	// Rebuild the tier chain bottom-up onto the cloned controller so the
	// clone's mem seam points into its own hierarchy, not the parent's.
	n.mem = hierarchy.Mem(n.ctrl)
	if m.dram != nil {
		n.dram = m.dram.Clone(n.ctrl)
		n.mem = n.dram
	}
	n.winStartStats = m.winStartStats.Clone()
	n.winStartCache = m.winStartCache.Clone()
	n.winStartDRAM = m.winStartDRAM.Clone()
	if m.obsv != nil {
		n.obsv = m.obsv.clone()
	}
	return &n
}

// MachineState is the complete serializable state of a Machine, the payload
// of on-disk checkpoints.
type MachineState struct {
	Options Options

	Gen  trace.GeneratorState
	LLC  cache.Snapshot
	Ctrl nvm.Snapshot

	CPUCycles float64
	Insts     uint64

	WinStartCycles float64
	WinStartInsts  uint64
	WinStartStats  nvm.Stats
	WinStartCache  cache.Stats

	// Obs is the attached observer registry's state, nil when the machine
	// had none. A gob-additive field: version-1 checkpoints written before
	// observers existed decode with Obs nil, which restores to "no
	// observer" — exactly their meaning.
	Obs *obs.State

	// DRAM is the DRAM cache tier's state, nil on NVM-only machines.
	// Gob-additive like Obs: checkpoints written before the tier seam
	// existed decode with DRAM nil — an NVM-only hierarchy, exactly their
	// meaning. WinStartDRAM rides along the same way (zero for them).
	DRAM         *dram.Snapshot
	WinStartDRAM dram.Stats

	// Cores holds cores 1..N-1 of a multi-core machine; core 0 rides the
	// scalar Gen/CPUCycles/Insts/WinStart* fields above. Gob-additive like
	// Obs: single-core machines, and checkpoints written before multi-core
	// machines were checkpointable, carry none — one core, exactly their
	// meaning.
	Cores []CoreState
}

// CoreState is the serializable state of one core of a multi-core machine.
type CoreState struct {
	Gen            trace.GeneratorState
	CPUCycles      float64
	Insts          uint64
	WinStartCycles float64
	WinStartInsts  uint64
}

func (c *coreState) snapshot() CoreState {
	return CoreState{
		Gen:            c.gen.Snapshot(),
		CPUCycles:      c.cycles,
		Insts:          c.insts,
		WinStartCycles: c.winStartCycles,
		WinStartInsts:  c.winStartInsts,
	}
}

// maxClockCycles bounds a restored core clock: up to 2^53 every cycle count
// is an exact float64 (about 52 days of simulated time at 2 GHz, far beyond
// any run); past it cycle arithmetic loses whole cycles, and an infinite
// clock has no memory-cycle time at all.
const maxClockCycles = 1 << 53

func restoreCore(st CoreState) (coreState, error) {
	if err := st.Gen.Validate(); err != nil {
		return coreState{}, err
	}
	if !(st.WinStartCycles >= 0 && st.WinStartCycles <= st.CPUCycles && st.CPUCycles <= maxClockCycles) || st.WinStartInsts > st.Insts {
		return coreState{}, fmt.Errorf("clock %g cycles/%d insts is outside [window start %g/%d, %g cycles]", st.CPUCycles, st.Insts, st.WinStartCycles, st.WinStartInsts, float64(maxClockCycles))
	}
	return coreState{
		gen:            trace.FromState(st.Gen),
		cycles:         st.CPUCycles,
		insts:          st.Insts,
		winStartCycles: st.WinStartCycles,
		winStartInsts:  st.WinStartInsts,
	}, nil
}

// Snapshot captures the machine's complete state. It shares nothing with
// the machine. Pending window deltas are published first, so the captured
// registry accounts everything up to the snapshot point and a restored
// machine (whose publisher baselines are rebased to the restored stats)
// continues without gaps or double counts.
//
//mctlint:ignore clonefields snapshotView references every field; Snapshot only detaches the line lanes it shares
func (m *Machine) Snapshot() MachineState {
	st := m.snapshotView()
	st.LLC = st.LLC.Clone()
	if st.DRAM != nil {
		d := st.DRAM.Clone()
		st.DRAM = &d
	}
	return st
}

// snapshotView is Snapshot with the LLC's and the DRAM tier's line lanes
// shared with the machine, valid until it next steps. SaveCheckpoint
// encodes one at once.
//
//mctlint:ignore clonefields batch is a scratch buffer, not state, and mem is derived wiring (dram or ctrl): a restored machine allocates its own buffer and rewires the seam from the restored tiers
func (m *Machine) snapshotView() MachineState {
	var obsState *obs.State
	if m.obsv != nil {
		m.obsv.publish(m.llc.Stats(), m.ctrl.Stats(), m.dramStats(), false)
		s := m.obsv.reg.State()
		obsState = &s
	}
	var dramState *dram.Snapshot
	if m.dram != nil {
		s := m.dram.SnapshotView()
		dramState = &s
	}
	var extra []CoreState
	for i := 1; i < len(m.cores); i++ {
		extra = append(extra, m.cores[i].snapshot())
	}
	c0 := m.cores[0].snapshot()
	return MachineState{
		Obs:            obsState,
		DRAM:           dramState,
		Options:        m.opt,
		Gen:            c0.Gen,
		LLC:            m.llc.SnapshotView(),
		Ctrl:           m.ctrl.Snapshot(),
		CPUCycles:      c0.CPUCycles,
		Insts:          c0.Insts,
		WinStartCycles: c0.WinStartCycles,
		WinStartInsts:  c0.WinStartInsts,
		WinStartStats:  m.winStartStats.Clone(),
		WinStartCache:  m.winStartCache.Clone(),
		WinStartDRAM:   m.winStartDRAM.Clone(),
		Cores:          extra,
	}
}

// RestoreMachine rebuilds a machine from a state captured with Snapshot.
// The rebuilt machine continues the identical simulation.
func RestoreMachine(st MachineState) (*Machine, error) {
	if err := st.Options.Validate(); err != nil {
		return nil, fmt.Errorf("sim: checkpoint options: %w", err)
	}
	if st.Ctrl.Params != st.Options.Params {
		return nil, fmt.Errorf("sim: checkpoint controller params disagree with machine options")
	}
	llc, err := cache.FromSnapshot(st.LLC)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint LLC: %w", err)
	}
	ctrl, err := nvm.FromSnapshot(st.Ctrl)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint controller: %w", err)
	}
	if st.Options.Tiers.DRAMCache != (st.DRAM != nil) {
		return nil, fmt.Errorf("sim: checkpoint tier composition disagrees with machine options")
	}
	core0 := CoreState{Gen: st.Gen, CPUCycles: st.CPUCycles, Insts: st.Insts, WinStartCycles: st.WinStartCycles, WinStartInsts: st.WinStartInsts}
	cores := make([]coreState, 1+len(st.Cores))
	for i, cs := range append([]CoreState{core0}, st.Cores...) {
		if cores[i], err = restoreCore(cs); err != nil {
			return nil, fmt.Errorf("sim: checkpoint core %d: %w", i, err)
		}
	}
	m := &Machine{
		opt:           st.Options,
		cores:         cores,
		llc:           llc,
		ctrl:          ctrl,
		mem:           ctrl,
		winStartStats: st.WinStartStats.Clone(),
		winStartCache: st.WinStartCache.Clone(),
		winStartDRAM:  st.WinStartDRAM.Clone(),
	}
	if st.DRAM != nil {
		d, err := dram.FromSnapshot(*st.DRAM, ctrl)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint DRAM tier: %w", err)
		}
		m.dram = d
		m.mem = d
	}
	if st.Obs != nil {
		reg, err := obs.FromState(*st.Obs)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint observer: %w", err)
		}
		m.AttachObserver(reg)
	}
	return m, nil
}

const (
	checkpointMagic   = "mct-machine-checkpoint"
	checkpointVersion = 1
)

// checkpointEnvelope versions the on-disk format so stale checkpoints fail
// loudly instead of decoding garbage.
type checkpointEnvelope struct {
	Magic   string
	Version int
	State   MachineState
}

// SaveCheckpoint writes the machine's state to path (gob, versioned). The
// write is atomic with respect to crashes of this process: the state is
// encoded into a temp file in the target directory, which is renamed over
// path only after a complete encode and close, and removed on any error. A
// process crash or kill -9 at any point therefore leaves either the old
// checkpoint or the new one, never a torn file. Nothing is fsynced, so
// power loss or an OS crash can still lose or truncate a recent write.
func SaveCheckpoint(path string, m *Machine) error {
	return writeCheckpoint(path, m.snapshotView())
}

// writeCheckpoint is SaveCheckpoint for an already captured state.
func writeCheckpoint(path string, st MachineState) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //mctlint:ignore uncheckederr best-effort cleanup; after a successful rename the temp path no longer exists
	// gob buffers each message itself, so encoding straight into the file
	// writes the checkpoint without a second full-size copy.
	env := checkpointEnvelope{Magic: checkpointMagic, Version: checkpointVersion, State: st}
	if err := gob.NewEncoder(tmp).Encode(env); err != nil {
		tmp.Close() //mctlint:ignore uncheckederr the encode error is the one worth reporting; the temp file is removed either way
		return fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadCheckpoint rebuilds a machine from a checkpoint written by
// SaveCheckpoint.
func LoadCheckpoint(path string) (*Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var env checkpointEnvelope
	if err := gob.NewDecoder(f).Decode(&env); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint %s: %w", path, err)
	}
	if env.Magic != checkpointMagic {
		return nil, fmt.Errorf("sim: %s is not a machine checkpoint", path)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint %s has version %d, this binary reads %d", path, env.Version, checkpointVersion)
	}
	return RestoreMachine(env.State)
}
