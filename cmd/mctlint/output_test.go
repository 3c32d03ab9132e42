package main

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"mct/internal/analysis"
)

func sampleFindings() []jsonDiagnostic {
	// Deliberately out of order: rendering must sort.
	return []jsonDiagnostic{
		{File: "internal/sim/sim.go", Line: 40, Col: 2, Rule: "maprange", Message: "b"},
		{File: "internal/energy/energy.go", Line: 87, Col: 3, Rule: "maprange", Message: "a"},
		{File: "internal/sim/sim.go", Line: 12, Col: 9, Rule: "goleak", Message: "c"},
		{File: "internal/sim/sim.go", Line: 12, Col: 9, Rule: "deferloop", Message: "d"},
	}
}

func TestRenderJSONStableAndSorted(t *testing.T) {
	ds := sampleFindings()
	sortJSONDiagnostics(ds)
	first, err := renderJSON(ds)
	if err != nil {
		t.Fatal(err)
	}

	// Same findings arriving in a different order must render to the same
	// bytes once sorted — the byte-stability contract CI relies on.
	ds2 := sampleFindings()
	ds2[0], ds2[3] = ds2[3], ds2[0]
	sortJSONDiagnostics(ds2)
	second, err := renderJSON(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("renders differ:\n%s\nvs\n%s", first, second)
	}

	if first[len(first)-1] != '\n' {
		t.Error("rendered JSON not newline-terminated")
	}
	// Sorted order: energy.go first, then sim.go line 12 (deferloop before
	// goleak), then line 40.
	if ds2[0].File != "internal/energy/energy.go" ||
		ds2[1].Rule != "deferloop" || ds2[2].Rule != "goleak" || ds2[3].Line != 40 {
		t.Errorf("unexpected sort order: %+v", ds2)
	}
}

func TestRenderJSONEmpty(t *testing.T) {
	out, err := renderJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "[]\n" {
		t.Errorf("empty render = %q, want %q", out, "[]\n")
	}
}

func TestToJSONDiagnosticsModuleRelative(t *testing.T) {
	moduleDir := string(filepath.Separator) + filepath.Join("home", "x", "repo")
	ds := toJSONDiagnostics(moduleDir, []analysis.Diagnostic{
		{
			Pos:     token.Position{Filename: filepath.Join(moduleDir, "internal", "sim", "sim.go"), Line: 3, Column: 1},
			Rule:    "floateq",
			Message: "m",
		},
	})
	if len(ds) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(ds))
	}
	if ds[0].File != "internal/sim/sim.go" {
		t.Errorf("path %q not module-relative slash form", ds[0].File)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	ds := sampleFindings()
	sortJSONDiagnostics(ds)
	out, err := renderJSON(ds)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds) {
		t.Fatalf("round trip lost findings: %d != %d", len(got), len(ds))
	}
	for i := range got {
		if got[i] != ds[i] {
			t.Errorf("entry %d: %+v != %+v", i, got[i], ds[i])
		}
	}
}

func TestLoadBaselineErrors(t *testing.T) {
	if _, err := loadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline file did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(bad); err == nil {
		t.Error("malformed baseline did not error")
	}
}

func TestFilterBaseline(t *testing.T) {
	findings := []jsonDiagnostic{
		{File: "a.go", Line: 10, Rule: "goleak", Message: "m1"},
		{File: "a.go", Line: 20, Rule: "goleak", Message: "m1"}, // same key, second instance
		{File: "b.go", Line: 5, Rule: "maprange", Message: "m2"},
	}
	baseline := []jsonDiagnostic{
		// Line differs: matching is line-agnostic.
		{File: "a.go", Line: 99, Rule: "goleak", Message: "m1"},
		// Stale: nothing matches this anymore.
		{File: "gone.go", Line: 1, Rule: "floateq", Message: "old"},
	}
	fresh, stale := filterBaseline(findings, baseline)
	if stale != 1 {
		t.Errorf("stale = %d, want 1", stale)
	}
	if len(fresh) != 2 {
		t.Fatalf("fresh = %+v, want 2 entries (one goleak instance absorbed)", fresh)
	}
	// The single baseline credit absorbs one of the two identical goleak
	// findings; the other plus the maprange one survive.
	if fresh[0].Rule != "goleak" || fresh[1].Rule != "maprange" {
		t.Errorf("unexpected survivors: %+v", fresh)
	}
}

func TestFilterBaselineEmptyBaseline(t *testing.T) {
	findings := sampleFindings()
	fresh, stale := filterBaseline(findings, nil)
	if stale != 0 || len(fresh) != len(findings) {
		t.Errorf("empty baseline changed findings: fresh=%d stale=%d", len(fresh), stale)
	}
}
