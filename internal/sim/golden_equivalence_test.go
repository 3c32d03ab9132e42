// Golden equivalence gate for the tier-pipeline refactor: the default
// two-tier machine (LLC → NVM controller, no DRAM tier) must produce
// metrics byte-identical to the pre-refactor seed. The golden file was
// captured from the hard-coded llc/ctrl machine immediately before the
// hierarchy.Tier seam was introduced; any drift here means the refactor
// changed simulation results, not just structure.
//
// Regenerate (only when an intentional, documented stream break occurs):
//
//	MCT_UPDATE_GOLDEN=1 go test -run TestDefaultPipelineGolden ./internal/sim
package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mct/internal/config"
	"mct/internal/trace"
)

const goldenMetricsFile = "testdata/golden_default_pipeline.txt"

// goldenConfigs are the configurations pinned by the golden file: the
// default system, the static baseline, and a wear-quota + cancellation
// point that exercises forced writes and the drain paths.
func goldenConfigs() []config.Config {
	wq := config.StaticBaseline()
	wq.FastCancellation = true
	wq.SlowLatency = 4.0
	return []config.Config{config.Default(), config.StaticBaseline(), wq}
}

// formatMetrics renders every float with full round-trip precision
// (strconv 'g', -1): two Metrics render identically iff they are
// bit-identical in each pinned field.
func formatMetrics(m Metrics) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "insts=%d cycles=%s ipc=%s seconds=%s lifetime=%s energy=%s\n",
		m.Instructions, g(m.CPUCycles), g(m.IPC), g(m.Seconds), g(m.LifetimeYears), g(m.EnergyJ))
	fmt.Fprintf(&b, "  breakdown cpu_dyn=%s cpu_static=%s nvm_read=%s nvm_write=%s nvm_static=%s\n",
		g(m.Energy.CPUDynamic), g(m.Energy.CPUStatic), g(m.Energy.NVMRead), g(m.Energy.NVMWrite), g(m.Energy.NVMStatic))
	fmt.Fprintf(&b, "  traffic reads=%d writes=%d eager=%d cancelled=%d forced=%d slow=%d fast=%d qfull=%d\n",
		m.MemReads, m.MemWrites, m.EagerWrites, m.CancelledWrites, m.ForcedWrites, m.SlowWrites, m.FastWrites, m.QueueFullStalls)
	fmt.Fprintf(&b, "  rates llc_hit=%s row_hit=%s\n", g(m.LLCHitRate), g(m.RowHitRate))
	return b.String()
}

// renderGolden produces the golden text: warm-clone evaluations of the
// pinned configurations on lbm plus a windowed RunInstructions pass, the
// two execution styles the runtime drives.
func renderGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder

	p, err := Prepare("lbm", 0, 30_000, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range goldenConfigs() {
		m, err := p.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "eval[%d] %v\n%s", i, cfg, formatMetrics(m))
	}

	m, err := NewMachine(p.Spec, config.StaticBaseline(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.Warmup(DefaultWarmupAccesses)
	for w := 0; w < 3; w++ {
		fmt.Fprintf(&b, "window[%d]\n%s", w, formatMetrics(m.RunInstructions(400_000)))
	}
	return b.String()
}

func TestDefaultPipelineGolden(t *testing.T) {
	got := renderGolden(t)
	if os.Getenv("MCT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenMetricsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMetricsFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenMetricsFile)
		return
	}
	want, err := os.ReadFile(goldenMetricsFile)
	if err != nil {
		t.Fatalf("golden file missing (capture it on the pre-refactor tree with MCT_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("default two-tier pipeline drifted from the pre-refactor golden\n--- want:\n%s--- got:\n%s", want, got)
	}
}

const goldenMultiFile = "testdata/golden_multi_pipeline.txt"

// renderMultiGolden produces the multi-core golden text: mix1 on the
// 4-core system after a 240k-access warmup, two RunInstructions windows,
// once NVM-only and once with the DRAM tier interposed.
func renderMultiGolden(t *testing.T) string {
	t.Helper()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, tiers := range []config.TierConfig{{}, {DRAMCache: true}} {
		opt := DefaultMultiOptions()
		opt.Tiers = tiers
		m, err := NewMultiMachine(mustMix(t, "mix1"), config.StaticBaseline(), opt)
		if err != nil {
			t.Fatal(err)
		}
		m.Warmup(240_000)
		for w := 0; w < 2; w++ {
			mt := m.RunInstructions(400_000)
			fmt.Fprintf(&b, "dram=%v window[%d]\n%s", tiers.DRAMCache, w, formatMetrics(mt))
			fmt.Fprintf(&b, "  dram hits=%d misses=%d write_hits=%d eager_absorbed=%d promotions=%d writebacks=%d hit_rate=%s\n",
				mt.DRAMHits, mt.DRAMMisses, mt.DRAMWriteHits, mt.DRAMEagerAbsorbed, mt.DRAMPromotions, mt.DRAMWritebacks, g(mt.DRAMHitRate))
		}
	}
	return b.String()
}

// TestMultiPipelineGolden pins the multi-core path. The golden was captured
// from the separate 4-core machine that predates the one-machine step loop,
// with one behaviour change applied to it: eager victims are harvested on
// LLC hits too, as the single-core step always did. Its windows carry the
// CPUCycles rescale the runtime adapter applied, and LLC/row hit rates
// computed as the single-core window does.
func TestMultiPipelineGolden(t *testing.T) {
	want, err := os.ReadFile(goldenMultiFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderMultiGolden(t); got != string(want) {
		t.Errorf("multi-core pipeline drifted from its golden\n--- want:\n%s--- got:\n%s", want, got)
	}
}

func mustMix(t *testing.T, mix string) []trace.Spec {
	t.Helper()
	specs, err := trace.MixByName(mix)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}
