package analysis

import (
	"sync"
	"testing"
	"time"
)

// lintTree runs the full registry — package passes plus the program pass —
// over every module package, exactly like `mctlint ./...`. It returns the
// import paths it walked and the surviving findings of each stage.
func lintTree(tb testing.TB, root string) (paths []string, pkgDiags, progDiags []Diagnostic) {
	tb.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		tb.Fatal(err)
	}
	paths, err = loader.PackageDirs(root)
	if err != nil {
		tb.Fatal(err)
	}
	var all []*Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			tb.Fatalf("load %s: %v", p, err)
		}
		all = append(all, pkg)
		pkgDiags = append(pkgDiags, RunAnalyzers(NewPass(loader, pkg), Analyzers())...)
	}
	prog := NewProgram(loader, all)
	return paths, pkgDiags, RunProgramAnalyzers(prog, Analyzers())
}

// BenchmarkLintTree measures one full-registry pass over the module: the
// number to watch when adding whole-program analyses.
func BenchmarkLintTree(b *testing.B) {
	root := moduleRoot(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lintTree(b, root)
	}
}

// lintBudget is the wall-clock ceiling on one full lint pass (cold caches),
// so a new whole-program analysis cannot silently blow up lint time. It
// leaves generous headroom over the observed single-digit-second runtime.
const lintBudget = 120 * time.Second

// lintTreeResult is one timed lintTree pass over the module.
type lintTreeResult struct {
	paths               []string
	pkgDiags, progDiags []Diagnostic
	elapsed             time.Duration
	ok                  bool // false if the pass stopped on a load error
}

var (
	sharedLintOnce sync.Once
	sharedLint     lintTreeResult
)

// sharedLintTree runs the full lint pass once per test binary and hands the
// same result to every test that checks it, so tier-1 pays for one cold
// pass. A load failure fails the test that ran the pass; every later caller
// fails too instead of checking an empty result.
func sharedLintTree(t *testing.T) lintTreeResult {
	t.Helper()
	sharedLintOnce.Do(func() {
		start := time.Now()
		paths, pkgDiags, progDiags := lintTree(t, moduleRoot(t))
		sharedLint = lintTreeResult{paths, pkgDiags, progDiags, time.Since(start), true}
	})
	if !sharedLint.ok {
		t.Fatal("the shared full lint pass did not complete")
	}
	return sharedLint
}

// TestLintTreeWallClockBudget is the CI ceiling: the full mctlint pass
// (package and program rules, cold caches) must finish inside lintBudget.
// It times the pass TestModuleTreeClean checks rather than running its own.
func TestLintTreeWallClockBudget(t *testing.T) {
	elapsed := sharedLintTree(t).elapsed
	t.Logf("full lint pass: %v (budget %v)", elapsed, lintBudget)
	if elapsed > lintBudget {
		t.Fatalf("full mctlint pass took %v, over the %v budget", elapsed, lintBudget)
	}
}
