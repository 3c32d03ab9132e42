package core

import (
	"slices"
	"testing"

	"mct/internal/config"
	"mct/internal/obs"
	"mct/internal/sim"
)

func TestClampBudget(t *testing.T) {
	cases := []struct {
		n, budget, used uint64
		want            uint64
		ok              bool
	}{
		{n: 1000, budget: 5000, used: 0, want: 1000, ok: true},
		{n: 1000, budget: 5000, used: 4500, want: 500, ok: true},
		{n: 1000, budget: 5000, used: 4000, want: 1000, ok: true},
		// Exhausted budget: used == budget and used > budget. Before the
		// clamp was extracted, budget-used underflowed uint64 here and the
		// window ran unclamped.
		{n: 1000, budget: 5000, used: 5000, want: 0, ok: false},
		{n: 1000, budget: 5000, used: 7000, want: 0, ok: false},
		{n: 0, budget: 5000, used: 5000, want: 0, ok: false},
	}
	for _, c := range cases {
		got, ok := clampBudget(c.n, c.budget, c.used)
		if got != c.want || ok != c.ok {
			t.Errorf("clampBudget(%d, %d, %d) = (%d, %t), want (%d, %t)",
				c.n, c.budget, c.used, got, ok, c.want, c.ok)
		}
	}
}

// fakeSystem is a scripted core.System: deterministic IPC per window chosen
// by configuration and progress, zero wear (lifetime pins at the simulator's
// 1000-year cap). It lets the tests steer the runtime into specific code
// paths — health reverts, phase changes, budget overshoot — that real traces
// only hit probabilistically.
type fakeSystem struct {
	opt      sim.Options
	baseline config.Config
	active   config.Config

	total uint64 // instructions executed so far
	calls int

	// degradeAfter > 0 drops non-baseline IPC from 2.2 to 1.0 once total
	// passes it (sampling looks great, testing disappoints → health revert).
	degradeAfter uint64
	// trafficJumpAfter > 0 multiplies memory traffic 10× once total passes
	// it (drives the phase detector).
	trafficJumpAfter uint64
	// instScale > 1 makes every window overshoot its requested length, the
	// way real machines overshoot by finishing whole memory accesses.
	instScale float64
}

func (f *fakeSystem) RunInstructions(n uint64) sim.Metrics {
	f.calls++
	ipc := 2.0
	if f.active != f.baseline {
		ipc = 2.2
		if f.degradeAfter > 0 && f.total >= f.degradeAfter {
			ipc = 1.0
		}
	}
	if f.instScale > 1 {
		n = uint64(float64(n) * f.instScale)
	}
	f.total += n
	instsPerRead := uint64(100)
	if f.trafficJumpAfter > 0 && f.total >= f.trafficJumpAfter {
		instsPerRead = 10
	}
	m := sim.Metrics{
		Instructions:  n,
		CPUCycles:     float64(n) / ipc,
		IPC:           ipc,
		Seconds:       float64(n) / ipc / 3.2e9,
		LifetimeYears: 1000,
		EnergyJ:       float64(n) * 1e-9,
	}
	// A little deterministic jitter keeps the phase detector's variances
	// finite (a perfectly constant history makes the t-score degenerate).
	m.MemReads = n/instsPerRead + uint64(f.calls%3)
	m.MemWrites = n / (2 * instsPerRead)
	return m
}

func (f *fakeSystem) SetConfig(cfg config.Config) error { f.active = cfg; return nil }
func (f *fakeSystem) Options() sim.Options              { return f.opt }
func (f *fakeSystem) Warmup(int) uint64                 { return 0 }

// fakeRuntimeOptions are small budgets tuned to the fakeSystem timeline:
// baseline ends at 100k instructions, sampling at 200k, testing after.
func fakeRuntimeOptions() Options {
	o := DefaultOptions()
	o.Sampler = SamplerRandom
	o.RandomSamples = 5
	o.BaselineInsts = 100_000
	o.SampleUnitInsts = 10_000
	o.SamplingTotalInsts = 100_000
	o.TestChunkInsts = 50_000
	o.HealthCheckEvery = 2
	o.HealthMargin = 0.02
	o.SampleSettleFrac = 0
	o.WarmupAccesses = 0
	return o
}

func newFakeRuntime(t *testing.T, f *fakeSystem, o Options) *Runtime {
	t.Helper()
	f.opt = sim.DefaultOptions()
	rt, err := New(f, Default(8), o)
	if err != nil {
		t.Fatal(err)
	}
	f.baseline = rt.Baseline()
	f.active = f.baseline
	return rt
}

// TestHealthRevertSwitchesBackToBaseline scripts the §5.4 never-worse
// guarantee: the chosen configuration samples well but degrades during
// testing, so the health check must revert the machine to the baseline and
// leave it there.
func TestHealthRevertSwitchesBackToBaseline(t *testing.T) {
	f := &fakeSystem{degradeAfter: 200_000}
	rt := newFakeRuntime(t, f, fakeRuntimeOptions())

	res, err := rt.Run(600_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.HealthReverts == 0 {
		t.Fatal("degraded testing IPC must trigger a health revert")
	}
	if !res.Phases[0].Reverted {
		t.Error("phase record must mark the revert")
	}
	if res.Phases[0].Decision.Chosen == f.baseline {
		t.Fatal("test is vacuous: the learner chose the baseline itself")
	}
	if f.active != f.baseline {
		t.Errorf("after a revert the machine must run the baseline, got %+v", f.active)
	}
}

// TestNoHealthRevertWhenChosenHolds is the control: a chosen configuration
// that keeps outperforming the baseline must never be reverted.
func TestNoHealthRevertWhenChosenHolds(t *testing.T) {
	f := &fakeSystem{} // non-baseline stays at IPC 2.2 forever
	rt := newFakeRuntime(t, f, fakeRuntimeOptions())

	res, err := rt.Run(600_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.HealthReverts != 0 {
		t.Errorf("healthy chosen configuration reverted %d times", res.HealthReverts)
	}
	if f.active == f.baseline {
		t.Error("machine should still run the chosen configuration")
	}
}

// TestPhaseChangeStartsNewLearningCycle scripts a workload shift mid-testing
// (memory traffic jumps 10×) and checks the detector ends the phase and the
// runtime starts a fresh learning cycle.
func TestPhaseChangeStartsNewLearningCycle(t *testing.T) {
	o := fakeRuntimeOptions()
	o.HealthCheckEvery = 0 // isolate the detector path
	o.EnablePhaseDetection = true
	o.Phase.ShortWindows = 3
	o.Phase.LongWindows = 20
	// A 10× traffic jump inflates the long window's variance along with its
	// mean, capping the Welch score near 4–5; steady-state scores stay below
	// 1, so 3 separates them cleanly.
	o.Phase.Threshold = 3
	// Jump after the detector has a primed history: testing starts at 200k,
	// 8 chunks of 50k pass before the shift.
	f := &fakeSystem{trafficJumpAfter: 600_000}
	rt := newFakeRuntime(t, f, o)

	res, err := rt.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseChanges == 0 {
		t.Fatal("traffic jump must trigger a phase change")
	}
	if len(res.Phases) < 2 {
		t.Fatalf("phase change must start a new learning cycle, got %d phase(s)", len(res.Phases))
	}
	if !res.Phases[0].PhaseChange {
		t.Error("first phase record must mark the early end")
	}
}

// TestKeptPredictionsAreNotAliased: the runtime predicts every phase into
// one reused buffer, so each Decision.Predictions kept under
// KeepPredictions must be its own copy, unchanged by later decisions.
func TestKeptPredictionsAreNotAliased(t *testing.T) {
	o := fakeRuntimeOptions()
	o.HealthCheckEvery = 0
	o.EnablePhaseDetection = true
	o.Phase.ShortWindows = 3
	o.Phase.LongWindows = 20
	o.Phase.Threshold = 3
	o.KeepPredictions = true
	var rt *Runtime
	var atDecision [][3]float64 // phase 0's predictions when it decided
	o.Events = func(e obs.Event) {
		if e.Kind == "decision" && e.Item == phaseItem(0) {
			atDecision = slices.Clone(rt.preds)
		}
	}
	f := &fakeSystem{trafficJumpAfter: 600_000}
	rt = newFakeRuntime(t, f, o)

	res, err := rt.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) < 2 {
		t.Fatalf("need two decisions, got %d phase(s)", len(res.Phases))
	}
	p0, p1 := res.Phases[0].Decision.Predictions, res.Phases[1].Decision.Predictions
	if len(p0) != rt.Space().Len() || len(p1) != rt.Space().Len() {
		t.Fatalf("kept %d and %d predictions, want %d each", len(p0), len(p1), rt.Space().Len())
	}
	if &p0[0] == &p1[0] || &p0[0] == &rt.preds[0] || &p1[0] == &rt.preds[0] {
		t.Fatal("kept predictions share a backing array")
	}
	if !slices.Equal(p0, atDecision) {
		t.Fatal("phase 0's kept predictions changed after phase 1 decided")
	}
	// Phase 1 learned on different traffic; equal matrices would make the
	// check above vacuous.
	if slices.Equal(p0, p1) {
		t.Fatal("phases 0 and 1 predicted identical matrices")
	}
}

// TestRunBoundedUnderOvershoot: windows that overshoot their requested
// length (as real machines do by completing whole memory accesses) must not
// blow past the budget — the regression guarded by clampBudget.
func TestRunBoundedUnderOvershoot(t *testing.T) {
	f := &fakeSystem{instScale: 3}
	rt := newFakeRuntime(t, f, fakeRuntimeOptions())

	const budget = 150_000
	res, err := rt.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 {
		t.Fatalf("overshot budget must still terminate after one phase, got %d", len(res.Phases))
	}
	// The single baseline window overshoots to 300k and exhausts the budget:
	// nothing else may run.
	if f.calls != 1 {
		t.Errorf("budget exhausted after the first window, yet %d windows ran", f.calls)
	}
	if got := res.Overall.Instructions; got != 300_000 {
		t.Errorf("overall instructions %d, want exactly the one overshot window (300000)", got)
	}
}
