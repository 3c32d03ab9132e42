// Package analysis is a dependency-free static-analysis framework for the
// MCT tree, built only on the standard library's go/ast, go/parser and
// go/types (no golang.org/x/tools). It exists because the reproduction's
// claims rest on the simulator being deterministic and numerically careful:
// a single draw from math/rand's global source or a silent float-equality
// branch can shift IPC/lifetime predictions and invalidate the reproduced
// figure shapes. The cmd/mctlint driver walks the module, runs the
// registered analyzers over every type-checked package, and reports
// findings as "file:line: [rule] message".
//
// Findings can be suppressed with a directive comment on the offending line
// or on the line directly above it:
//
//	//mctlint:ignore <rule> <reason>
//
// The reason is mandatory and the rule must be registered; a directive
// without a reason or naming an unknown rule is itself reported and
// suppresses nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the driver's output format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Pass carries one type-checked package through the analyzers.
type Pass struct {
	Fset    *token.FileSet
	PkgPath string
	Pkg     *types.Package
	Files   []*ast.File
	Info    *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one lint rule. A rule is either package-scoped (Run set:
// invoked once per type-checked package) or program-scoped (RunProgram set:
// invoked once over a whole-program view with a call graph — see
// program.go). Exactly one of the two should be set.
type Analyzer struct {
	// Name is the rule identifier used in output and ignore directives.
	Name string
	// Doc is a one-line description for the driver's -rules listing.
	Doc string
	// Severity classifies findings for drivers and humans: "error" (default
	// when empty — violates a correctness invariant) or "warn" (audit-class:
	// worth a look, not necessarily a bug).
	Severity string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
	// RunProgram inspects the whole program and reports findings via
	// prog.Reportf.
	RunProgram func(prog *Program)
}

// EffectiveSeverity returns the rule's severity, defaulting to "error".
func (a *Analyzer) EffectiveSeverity() string {
	if a.Severity == "" {
		return "error"
	}
	return a.Severity
}

// Interprocedural reports whether the rule is program-scoped (built on the
// call-graph/summary layer rather than a single package pass).
func (a *Analyzer) Interprocedural() bool { return a.RunProgram != nil }

// Analyzers returns the default registry: every simulator-aware rule
// shipped with mctlint. The first seven are syntactic; the next three are
// flow-sensitive, built on the CFG/dataflow layer of cfg.go and
// dataflow.go; the next two are interprocedural, built on the call-graph
// and summary layer of callgraph.go and summaries.go; the last is the
// program-scoped deprecation gate.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoRandGlobal,
		FloatEq,
		UncheckedErr,
		CycleCast,
		CtxFirst,
		CloneFields,
		ObsNames,
		MapRange,
		GoLeak,
		DeferLoop,
		AllocHot,
		LockFlow,
		NoDeprecated,
	}
}

// ignoreDirective is one parsed //mctlint:ignore comment.
type ignoreDirective struct {
	rule   string
	reason string
	line   int
	pos    token.Pos
}

const ignorePrefix = "mctlint:ignore"

// parseIgnores extracts the ignore directives of a file. A directive
// missing its rule or reason, or naming no registered rule, suppresses
// nothing; when bad is non-nil it is called with the directive's position
// and the complaint so the package pass can report it under the reserved
// rule name "mctlint".
func parseIgnores(fset *token.FileSet, file *ast.File, bad func(token.Pos, string)) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				if bad != nil {
					bad(c.Pos(), "malformed ignore directive: want //mctlint:ignore <rule> <reason>")
				}
				continue
			}
			if !registeredRule(fields[0]) {
				if bad != nil {
					bad(c.Pos(), fmt.Sprintf("ignore directive names unknown rule %q", fields[0]))
				}
				continue
			}
			out = append(out, ignoreDirective{
				rule:   fields[0],
				reason: strings.Join(fields[1:], " "),
				line:   fset.Position(c.Pos()).Line,
				pos:    c.Pos(),
			})
		}
	}
	return out
}

// registeredRule reports whether name is a rule of the full registry — not
// of the subset one run applies, so a directive for a rule a fixture test
// leaves out is still valid.
func registeredRule(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// suppressKey identifies one (file, line, rule) suppression slot.
type suppressKey struct {
	file string
	line int
	rule string
}

// suppressionIndex collects the suppression slots of files: a directive on
// line L suppresses matching findings on L and L+1 (trailing comment or
// comment-above placement).
func suppressionIndex(fset *token.FileSet, files []*ast.File, bad func(token.Pos, string)) map[suppressKey]bool {
	suppressed := map[suppressKey]bool{}
	for _, f := range files {
		fname := fset.Position(f.Pos()).Filename
		for _, d := range parseIgnores(fset, f, bad) {
			suppressed[suppressKey{fname, d.line, d.rule}] = true
			suppressed[suppressKey{fname, d.line + 1, d.rule}] = true
		}
	}
	return suppressed
}

// applySuppression filters findings through the suppression index and
// returns the survivors sorted by position.
func applySuppression(diags []Diagnostic, suppressed map[suppressKey]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Rule != "mctlint" && suppressed[suppressKey{d.Pos.Filename, d.Pos.Line, d.Rule}] {
			continue
		}
		out = append(out, d)
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// RunAnalyzers runs every package-scoped analyzer over the package, applies
// ignore directives, and returns the surviving findings sorted by position.
// Program-scoped analyzers in the list are skipped (see
// RunProgramAnalyzers).
func RunAnalyzers(pass *Pass, analyzers []*Analyzer) []Diagnostic {
	for _, a := range analyzers {
		if a.Run != nil {
			a.Run(pass)
		}
	}
	suppressed := suppressionIndex(pass.Fset, pass.Files, func(pos token.Pos, msg string) {
		pass.Reportf(pos, "mctlint", "%s", msg)
	})
	return applySuppression(pass.diags, suppressed)
}

// RunProgramAnalyzers runs every program-scoped analyzer over the program,
// applies ignore directives of the analyzed packages, and returns the
// surviving findings sorted by position. Malformed or unknown-rule
// directives are not re-reported here: the package pass over the same
// files already owns that diagnostic.
func RunProgramAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	for _, a := range analyzers {
		if a.RunProgram != nil {
			a.RunProgram(prog)
		}
	}
	var files []*ast.File
	for _, p := range prog.Analyze {
		files = append(files, p.Files...)
	}
	suppressed := suppressionIndex(prog.Fset, files, nil)
	return applySuppression(prog.takeDiagnostics(), suppressed)
}
