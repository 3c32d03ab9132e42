package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestShortFuncName pins the message form of FuncInfo names: the module
// path is dropped, a method's receiver parentheses stay balanced.
func TestShortFuncName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"mct/internal/sim.Evaluate", "sim.Evaluate"},
		{"(*mct/internal/analysis.CFG).ReachableFrom", "(*analysis.CFG).ReachableFrom"},
		{"(mct/internal/config.Config).Validate", "(config.Config).Validate"},
		{"(*mct/internal/analysis.CFG).ReachableFrom$1", "(*analysis.CFG).ReachableFrom$1"},
		{"main.run", "main.run"},
	} {
		if got := shortFuncName(tc.in); got != tc.want {
			t.Errorf("shortFuncName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestDetFlowInjectedSourceTwoLevels seeds a wall-clock source two call
// levels above a report-table sink and asserts the taint survives both
// summary compositions: the acceptance probe for the interprocedural depth
// of the analysis.
func TestDetFlowInjectedSourceTwoLevels(t *testing.T) {
	const src = `package snippet

import (
	"strconv"
	"time"

	"mct/internal/experiments"
)

// measure is the source: two call levels above the sink.
func measure() float64 { return float64(time.Now().UnixNano()) }

// mid launders the value through arithmetic and a second frame.
func mid() float64 { return measure() / 1e6 }

// emit sinks the still-tainted value into a report table.
func emit(tab *experiments.Table) {
	v := mid()
	tab.AddRow("latency_ms", strconv.FormatFloat(v, 'f', 3, 64))
}
`
	prog := loadSnippet(t, src)
	diags := RunProgramAnalyzers(prog, []*Analyzer{DetFlow})

	var hits []string
	for _, d := range diags {
		if d.Rule == "detflow" {
			hits = append(hits, d.Message)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("want exactly 1 detflow finding for the injected source, got %d: %v", len(hits), hits)
	}
	msg := hits[0]
	if !strings.Contains(msg, "time.Now") {
		t.Errorf("finding must name the source (time.Now): %q", msg)
	}
	if !strings.Contains(msg, "AddRow") {
		t.Errorf("finding must name the sink (AddRow): %q", msg)
	}
}

// TestDetFlowSanctionedVolatileInstrument asserts the sanctioning side of
// the rule: the identical wall-clock value is a finding on a stable gauge
// and silence on a Volatile one.
func TestDetFlowSanctionedVolatileInstrument(t *testing.T) {
	const src = `package snippet

import (
	"time"

	"mct/internal/obs"
)

func publish(r *obs.Registry) {
	elapsed := time.Since(time.Unix(0, 0)).Seconds()
	r.Gauge("snippet_elapsed").Set(elapsed)
	r.VolatileGauge("snippet_elapsed_wall").Set(elapsed)
}
`
	prog := loadSnippet(t, src)
	diags := RunProgramAnalyzers(prog, []*Analyzer{DetFlow})

	var hits []Diagnostic
	for _, d := range diags {
		if d.Rule == "detflow" {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("want exactly 1 detflow finding (stable gauge only), got %d: %v", len(hits), hits)
	}
	if !strings.Contains(hits[0].Message, "Gauge.Set") {
		t.Errorf("finding must be on the stable Gauge.Set sink: %q", hits[0].Message)
	}
}

// TestDetFlowSurfacesClean is the acceptance criterion in test form: the
// three determinism surfaces — experiment report writers (experiments),
// stable observability instruments (obs and every package publishing into
// them), and gob checkpoint encoders (sim) — carry zero unsuppressed
// nondeterminism findings.
func TestDetFlowSurfacesClean(t *testing.T) {
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	surfaces := []string{
		loader.ModulePath() + "/internal/experiments", // report writers (Table.AddRow, Report.Notes)
		loader.ModulePath() + "/internal/obs",         // stable instruments (Counter/Gauge/Histogram)
		loader.ModulePath() + "/internal/sim",         // checkpoint encoders (gob via SaveCheckpoint)
	}
	var pkgs []*Package
	for _, p := range surfaces {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := NewProgram(loader, pkgs)
	for _, d := range RunProgramAnalyzers(prog, []*Analyzer{DetFlow}) {
		t.Errorf("determinism surface is tainted: %s", d)
	}
}

// TestAllochotWorklistRanked asserts the suppression-blind worklist export:
// in-loop sites first, then shallower call depth, with positions rendered
// for the CI artifact.
func TestAllochotWorklistRanked(t *testing.T) {
	const src = `package snippet

type job struct{ buf []byte }

//mctlint:hotpath
func step(js []*job) {
	for _, j := range js {
		j.buf = append(j.buf, expand(len(j.buf))...)
	}
	finish()
}

func expand(n int) []byte {
	return make([]byte, n+1)
}

func finish() {
	_ = new(job)
}
`
	prog := loadSnippet(t, src)
	sites := AllochotWorklist(prog)
	if len(sites) < 3 {
		t.Fatalf("want ≥3 alloc sites (append in loop, make in callee, new in finish), got %d: %+v", len(sites), sites)
	}
	// Rank: every in-loop site precedes every out-of-loop site; within a
	// group, shallower depth first.
	for i := 1; i < len(sites); i++ {
		a, b := sites[i-1], sites[i]
		if !a.InLoop && b.InLoop {
			t.Errorf("site %d (in loop) ranked after site %d (not in loop)", i, i-1)
		}
		if a.InLoop == b.InLoop && a.Depth > b.Depth {
			t.Errorf("equal loop class but depth %d ranked before %d", a.Depth, b.Depth)
		}
	}
	if sites[0].Pos.Filename == "" || sites[0].Pos.Line == 0 {
		t.Errorf("worklist positions must carry file and line, got %v", sites[0].Pos)
	}
	// The append inside the range loop is the top-ranked site.
	if !sites[0].InLoop {
		t.Error("top-ranked site must be the in-loop append")
	}
	if base := filepath.Base(sites[0].Pos.Filename); base != "snippet.go" {
		t.Errorf("top site in %s, want snippet.go", base)
	}
}
