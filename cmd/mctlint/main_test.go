package main

import (
	"strings"
	"testing"

	"mct/internal/analysis"
)

func TestSeverityStamping(t *testing.T) {
	sev := severityByRule(analysis.Analyzers())
	if sev["allochot"] != "warn" {
		t.Errorf("allochot severity = %q, want warn", sev["allochot"])
	}
	for _, rule := range []string{"lockflow", "norandglobal", "mctlint"} {
		if sev[rule] != "error" {
			t.Errorf("%s severity = %q, want error", rule, sev[rule])
		}
	}

	ds := []jsonDiagnostic{
		{File: "a.go", Rule: "allochot", Message: "m"},
		{File: "a.go", Rule: "lockflow", Message: "m"},
	}
	applySeverities(ds, sev)
	if ds[0].Severity != "warn" || ds[1].Severity != "error" {
		t.Errorf("stamped severities = %q, %q", ds[0].Severity, ds[1].Severity)
	}
	errs, warns := countBySeverity(ds)
	if errs != 1 || warns != 1 {
		t.Errorf("countBySeverity = (%d, %d), want (1, 1)", errs, warns)
	}
}

// TestArtifactRendering exercises the JSON exports over an empty worklist
// and a synthetic one: valid JSON, newline-terminated, rank order kept.
func TestArtifactRendering(t *testing.T) {
	out, err := allochotJSON("/m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "[]\n" {
		t.Errorf("empty worklist = %q, want []\\n", out)
	}

	sites := []analysis.AllocSite{
		{Func: "mct/internal/sim.step", Kind: "append", InLoop: true, Depth: 0},
		{Func: "mct/internal/nvm.helper", Kind: "make", InLoop: false, Depth: 2},
	}
	out, err = allochotJSON("/m", sites)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if !strings.HasSuffix(s, "\n") {
		t.Error("worklist JSON not newline-terminated")
	}
	if i, j := strings.Index(s, "sim.step"), strings.Index(s, "nvm.helper"); i < 0 || j < 0 || i > j {
		t.Errorf("worklist order not preserved in render:\n%s", s)
	}
}
