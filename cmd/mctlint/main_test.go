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
	for _, rule := range []string{"detflow", "lockflow", "norandglobal", "mctlint"} {
		if sev[rule] != "error" {
			t.Errorf("%s severity = %q, want error", rule, sev[rule])
		}
	}

	ds := []jsonDiagnostic{
		{File: "a.go", Rule: "allochot", Message: "m"},
		{File: "a.go", Rule: "detflow", Message: "m"},
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

func TestPruneBaseline(t *testing.T) {
	baseline := []jsonDiagnostic{
		{File: "a.go", Line: 1, Rule: "goleak", Message: "m1"},
		{File: "a.go", Line: 2, Rule: "goleak", Message: "m1"}, // duplicate key
		{File: "gone.go", Line: 3, Rule: "floateq", Message: "old"},
		{File: "b.go", Line: 4, Rule: "maprange", Message: "m2"},
	}
	findings := []jsonDiagnostic{
		// Only ONE goleak instance remains, at a shifted line.
		{File: "a.go", Line: 50, Rule: "goleak", Message: "m1"},
		{File: "b.go", Line: 9, Rule: "maprange", Message: "m2"},
	}
	got := pruneBaseline(baseline, findings)
	if len(got) != 2 {
		t.Fatalf("retained %d entries, want 2: %+v", len(got), got)
	}
	// The first goleak entry is retained (order preserved), the duplicate
	// and the gone.go entry are dropped.
	if got[0] != baseline[0] || got[1] != baseline[3] {
		t.Errorf("retained the wrong entries: %+v", got)
	}
}

func TestPruneBaselineAllStale(t *testing.T) {
	baseline := []jsonDiagnostic{{File: "gone.go", Rule: "floateq", Message: "old"}}
	if got := pruneBaseline(baseline, nil); len(got) != 0 {
		t.Errorf("clean tree must prune everything, kept %+v", got)
	}
}

// TestStaleFatalSemantics pins the contract the CI gate relies on: the
// filter reports stale counts, pruning retains exactly the live multiset,
// and a pruned baseline re-filters with zero stale entries.
func TestStaleFatalSemantics(t *testing.T) {
	baseline := []jsonDiagnostic{
		{File: "a.go", Rule: "goleak", Message: "m1"},
		{File: "gone.go", Rule: "floateq", Message: "old"},
	}
	findings := []jsonDiagnostic{{File: "a.go", Line: 7, Rule: "goleak", Message: "m1"}}

	fresh, stale := filterBaseline(findings, baseline)
	if stale != 1 || len(fresh) != 0 {
		t.Fatalf("filter = (%d fresh, %d stale), want (0, 1)", len(fresh), stale)
	}
	pruned := pruneBaseline(baseline, findings)
	if _, stale := filterBaseline(findings, pruned); stale != 0 {
		t.Errorf("pruned baseline still has %d stale entries", stale)
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
