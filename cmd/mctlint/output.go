// Machine-readable output and the baseline gate.
//
// The JSON form exists so CI can both archive the findings and diff them
// against a committed baseline: paths are module-relative with forward
// slashes and the array is sorted by (file, line, col, rule, message), so
// the rendered bytes are identical across runs, working directories and
// operating systems.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mct/internal/analysis"
)

// jsonDiagnostic is one finding in the machine-readable schema shared by
// -json output and -baseline input.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	// Severity is derived from the rule ("error" or "warn"). It is omitted
	// from baseline files written before the field existed and deliberately
	// excluded from baseline matching.
	Severity string `json:"severity,omitempty"`
}

// String renders the finding in the driver's classic text format.
func (d jsonDiagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Rule, d.Message)
}

// toJSONDiagnostics converts analyzer diagnostics to the stable schema:
// module-relative slash paths, sorted.
func toJSONDiagnostics(moduleDir string, diags []analysis.Diagnostic) []jsonDiagnostic {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(moduleDir, file); err == nil && !filepath.IsAbs(rel) {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonDiagnostic{
			File:    file,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
		})
	}
	sortJSONDiagnostics(out)
	return out
}

func sortJSONDiagnostics(ds []jsonDiagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// renderJSON marshals findings as an indented JSON array terminated by a
// newline. An empty set renders as "[]" so the artifact is always valid
// JSON.
func renderJSON(ds []jsonDiagnostic) ([]byte, error) {
	if len(ds) == 0 {
		return []byte("[]\n"), nil
	}
	b, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// renderAnyJSON marshals an arbitrary artifact value (guard domains, call
// graph wrappers) as indented JSON terminated by a newline.
func renderAnyJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// loadBaseline reads an accepted-findings file written by -json.
func loadBaseline(path string) ([]jsonDiagnostic, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mctlint: baseline: %w", err)
	}
	var ds []jsonDiagnostic
	if err := json.Unmarshal(data, &ds); err != nil {
		return nil, fmt.Errorf("mctlint: baseline %s: %w", path, err)
	}
	return ds, nil
}

// applySeverities stamps each finding with its rule's severity.
func applySeverities(ds []jsonDiagnostic, sev map[string]string) {
	for i := range ds {
		ds[i].Severity = sev[ds[i].Rule]
	}
}

// baselineKey identifies a finding for baseline matching. Line and column
// are deliberately excluded: edits above a finding shift it without
// changing what it is, and a baseline that churns on every edit gets
// deleted, not maintained.
type baselineKey struct {
	file, rule, message string
}

// filterBaseline subtracts the baseline from the findings as a multiset:
// each baseline entry absorbs at most one finding with the same file, rule
// and message. It returns the surviving (new) findings and the number of
// stale baseline entries that matched nothing.
func filterBaseline(findings, baseline []jsonDiagnostic) (fresh []jsonDiagnostic, stale int) {
	credit := map[baselineKey]int{}
	for _, b := range baseline {
		credit[baselineKey{b.File, b.Rule, b.Message}]++
	}
	fresh = findings[:0:0]
	for _, d := range findings {
		k := baselineKey{d.File, d.Rule, d.Message}
		if credit[k] > 0 {
			credit[k]--
			continue
		}
		fresh = append(fresh, d)
	}
	for _, left := range credit {
		stale += left
	}
	return fresh, stale
}

// pruneBaseline returns the baseline entries that still match a current
// finding, multiset-aware: n findings with one key retain at most n
// baseline entries with that key. Entry order (and so the rewritten file's
// bytes) is preserved.
func pruneBaseline(baseline, findings []jsonDiagnostic) []jsonDiagnostic {
	have := map[baselineKey]int{}
	for _, d := range findings {
		have[baselineKey{d.File, d.Rule, d.Message}]++
	}
	retained := baseline[:0:0]
	for _, b := range baseline {
		k := baselineKey{b.File, b.Rule, b.Message}
		if have[k] > 0 {
			have[k]--
			retained = append(retained, b)
		}
	}
	return retained
}
