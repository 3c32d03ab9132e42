// detflow: interprocedural taint analysis from nondeterminism sources to
// determinism sinks.
//
// MCT's reproduction contract is that reports, stable metric dumps and
// checkpoints are byte-identical at any worker count. detflow proves the
// data-flow side of that contract statically: no value derived from a
// nondeterminism source may reach a determinism sink, no matter how many
// calls lie between them.
//
// Sources (two taint classes):
//   - value class: wall clock (time.Now/Since/Until), math/rand's global
//     source, environment reads (os.Getenv and friends, runtime.GOMAXPROCS,
//     runtime.NumCPU). The tainted value itself differs between runs.
//   - order class: map iteration order. The values are deterministic but
//     the sequence they arrive in is not, so they taint ordering-sensitive
//     consumers (report rows, gob streams, last-write-wins gauges) while
//     commutative consumers (counter adds, histogram observes, map/set
//     inserts) stay clean. sort.*/slices.Sort* calls sanitize the order
//     class of the sorted value.
//
// Sinks: report writers ((*experiments.Table).AddRow, appends to
// experiments.Report.Notes), stable obs instrument writes (Counter.Add/Inc,
// Gauge.Set, Histogram.Observe/ObserveN/SetValues — unless the instrument
// provably came from a Volatile* constructor, the sanctioned surface for
// wall-clock data), and gob checkpoint encoders ((*gob.Encoder).Encode).
//
// The engine: one flow-sensitive ForwardSolve per function over facts
// mapping objects to marker sets, composed across calls with bottom-up SCC
// summaries (summaries.go). A summary records, per parameter, whether its
// value/order taint reaches a sink inside the callee (transitively) and
// which results it flows to, plus intrinsic source taint of each result.
// Findings are reported at the frontier: the call or sink expression where
// a value tainted by a *real* source (not a summary parameter) meets a
// sink-reaching position, so each source/sink pair reports once, in the
// function that created the taint.
//
// Soundness caveats (documented in DESIGN.md): taint does not propagate
// through unknown callees outside a whitelist of value-shaping stdlib
// packages (fmt, strconv, strings, ...), through I/O round trips, channel
// sends, or global variables; nested function literals are swept
// flow-insensitively within their enclosing function's facts (captured
// variables share identity, so closure captures are tracked).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow is the interprocedural nondeterminism-taint rule.
var DetFlow = &Analyzer{
	Name:       "detflow",
	Doc:        "no value tainted by time/rand/env/map-order may reach a report writer, stable obs instrument, or gob checkpoint encoder (any call depth)",
	Severity:   "error",
	RunProgram: runDetFlow,
}

// detClass is the taint class of a marker.
type detClass uint8

const (
	detValue detClass = iota
	detOrder
)

func (c detClass) String() string {
	if c == detOrder {
		return "nondeterministic ordering"
	}
	return "nondeterministic value"
}

// detMarker is one unit of taint: either a real source occurrence (param ==
// -1, pos/desc identify it) or the synthetic taint of parameter index param
// used while summarizing a function.
type detMarker struct {
	class detClass
	param int
	pos   token.Pos
	desc  string
}

// detMarks is a set of markers.
type detMarks map[detMarker]struct{}

func (m detMarks) union(src detMarks) detMarks {
	if len(src) == 0 {
		return m
	}
	if m == nil {
		m = make(detMarks, len(src))
	}
	for k := range src {
		m[k] = struct{}{}
	}
	return m
}

// filter returns the markers of one class (nil when none).
func (m detMarks) filter(c detClass) detMarks {
	var out detMarks
	for k := range m {
		if k.class == c {
			out = out.union(detMarks{k: {}})
		}
	}
	return out
}

// detFact maps objects to their taint markers.
type detFact map[types.Object]detMarks

func cloneDetFact(f detFact) detFact {
	c := make(detFact, len(f))
	for o, m := range f {
		cm := make(detMarks, len(m))
		for k := range m {
			cm[k] = struct{}{}
		}
		c[o] = cm
	}
	return c
}

func joinDetFact(dst, src detFact) detFact {
	for o, m := range src {
		dst[o] = dst[o].union(m)
	}
	return dst
}

func equalDetFact(a, b detFact) bool {
	if len(a) != len(b) {
		return false
	}
	for o, m := range a {
		bm, ok := b[o]
		if !ok || len(bm) != len(m) {
			return false
		}
		for k := range m {
			if _, ok := bm[k]; !ok {
				return false
			}
		}
	}
	return true
}

func factSize(f detFact) int {
	n := 0
	for _, m := range f {
		n += len(m)
	}
	return n
}

// detParamFlow is the summarized behavior of one parameter.
type detParamFlow struct {
	valueToResults map[int]bool
	orderToResults map[int]bool
	sinkValue      bool
	sinkOrder      bool
	sinkDesc       string
}

// detSummary is one function's memoized taint summary.
type detSummary struct {
	arity     int
	params    map[int]*detParamFlow
	intrinsic map[int]detMarks // result index → real-source markers
}

func newDetSummary(arity int) *detSummary {
	return &detSummary{arity: arity, params: map[int]*detParamFlow{}, intrinsic: map[int]detMarks{}}
}

func (s *detSummary) flow(i int) *detParamFlow {
	f := s.params[i]
	if f == nil {
		f = &detParamFlow{valueToResults: map[int]bool{}, orderToResults: map[int]bool{}}
		s.params[i] = f
	}
	return f
}

func detSummaryEqual(a, b *detSummary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.arity != b.arity || len(a.params) != len(b.params) || len(a.intrinsic) != len(b.intrinsic) {
		return false
	}
	for i, af := range a.params {
		bf, ok := b.params[i]
		if !ok || af.sinkValue != bf.sinkValue || af.sinkOrder != bf.sinkOrder ||
			len(af.valueToResults) != len(bf.valueToResults) || len(af.orderToResults) != len(bf.orderToResults) {
			return false
		}
		for r := range af.valueToResults {
			if !bf.valueToResults[r] {
				return false
			}
		}
		for r := range af.orderToResults {
			if !bf.orderToResults[r] {
				return false
			}
		}
	}
	for r, am := range a.intrinsic {
		bm, ok := b.intrinsic[r]
		if !ok || len(am) != len(bm) {
			return false
		}
		for k := range am {
			if _, ok := bm[k]; !ok {
				return false
			}
		}
	}
	return true
}

// detPropagatePkgs are the value-shaping stdlib packages taint flows
// through when the callee body is outside the program. Everything else
// breaks the chain (an os.ReadFile with a tainted path does not taint the
// file's contents — content determinism is a property of the file, not of
// where it came from).
var detPropagatePkgs = map[string]bool{
	"fmt": true, "strconv": true, "strings": true, "bytes": true,
	"math": true, "time": true, "sort": true, "slices": true,
	"maps": true, "errors": true, "unicode": true, "unicode/utf8": true,
	"cmp": true,
}

// detState is the program-wide analysis state.
type detState struct {
	prog     *Program
	graph    *CallGraph
	volatile map[types.Object]bool
	sums     map[*FuncInfo]*detSummary
}

func runDetFlow(prog *Program) {
	d := &detState{prog: prog, graph: prog.CallGraph(), volatile: volatileInstruments(prog)}
	solver := &SummarySolver[*detSummary]{
		Graph:  d.graph,
		Bottom: func() *detSummary { return nil },
		Equal:  detSummaryEqual,
		Compute: func(fn *FuncInfo, get func(*FuncInfo) *detSummary) *detSummary {
			return d.analyze(fn, get, false)
		},
	}
	d.sums = solver.Solve()
	// Report phase: re-run each top-level function against the converged
	// summaries, with reporting on. Nested literals are swept inside their
	// encloser (shared captured objects), so only declarations and orphan
	// literals run standalone.
	for _, fn := range prog.Funcs() {
		if fn.Lit != nil && fn.Encl != nil {
			continue
		}
		d.analyze(fn, func(f *FuncInfo) *detSummary { return d.sums[f] }, true)
	}
}

// volatileInstruments collects objects (variables and struct fields)
// provably initialized from obs Volatile* constructors: writes through them
// are sanctioned wall-clock surfaces, not determinism sinks.
func volatileInstruments(prog *Program) map[types.Object]bool {
	obsPath := prog.ModulePath + "/internal/obs"
	out := map[types.Object]bool{}
	isVolatileCtor := func(info *types.Info, e ast.Expr) bool {
		return isVolatileCtorCall(info, obsPath, e)
	}
	for _, p := range prog.Packages {
		info := p.Info
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					if len(x.Lhs) != len(x.Rhs) {
						return true
					}
					for i, rhs := range x.Rhs {
						if !isVolatileCtor(info, rhs) {
							continue
						}
						if id, ok := x.Lhs[i].(*ast.Ident); ok {
							if o := objOf(info, id); o != nil {
								out[o] = true
							}
						}
					}
				case *ast.ValueSpec:
					for i, v := range x.Values {
						if i < len(x.Names) && isVolatileCtor(info, v) {
							if o := objOf(info, x.Names[i]); o != nil {
								out[o] = true
							}
						}
					}
				case *ast.CompositeLit:
					st, ok := info.Types[x].Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if !isVolatileCtor(info, kv.Value) {
								continue
							}
							if id, ok := kv.Key.(*ast.Ident); ok {
								if o := objOf(info, id); o != nil {
									out[o] = true
								}
							}
						} else if isVolatileCtor(info, el) && i < st.NumFields() {
							out[st.Field(i)] = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// detFuncCtx is the per-function analysis context.
type detFuncCtx struct {
	d      *detState
	fn     *FuncInfo
	info   *types.Info
	get    func(*FuncInfo) *detSummary
	sum    *detSummary
	rep    bool
	ranges map[*Block][]*ast.RangeStmt
	inLit  map[*ast.FuncLit]bool
}

// analyze runs the taint solve over fn, returning its summary. With report
// set it additionally re-walks every block against the solved facts and
// reports frontier findings via prog.Reportf.
func (d *detState) analyze(fn *FuncInfo, get func(*FuncInfo) *detSummary, report bool) *detSummary {
	params := detParams(fn)
	fc := &detFuncCtx{
		d:     d,
		fn:    fn,
		info:  fn.Pkg.Info,
		get:   get,
		sum:   newDetSummary(len(params)),
		inLit: map[*ast.FuncLit]bool{},
	}
	entry := detFact{}
	for i, p := range params {
		if p == nil || p.Name() == "" || p.Name() == "_" {
			continue
		}
		entry[p] = detMarks{
			{class: detValue, param: i}: {},
			{class: detOrder, param: i}: {},
		}
	}
	g := fn.CFG()
	fc.ranges = map[*Block][]*ast.RangeStmt{}
	ast.Inspect(fn.Body(), func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if r, ok := n.(*ast.RangeStmt); ok {
			if b := g.BlockOf(r); b != nil {
				fc.ranges[b] = append(fc.ranges[b], r)
			}
		}
		return true
	})

	facts := ForwardSolve(g, FlowSpec[detFact]{
		Entry:  entry,
		Bottom: func() detFact { return detFact{} },
		Clone:  cloneDetFact,
		Join:   joinDetFact,
		Equal:  equalDetFact,
		Transfer: func(b *Block, in detFact) detFact {
			fc.transfer(b, in)
			return in
		},
	})
	if report {
		fc.rep = true
		for _, b := range g.Blocks {
			fact := cloneDetFact(facts.In[b])
			fc.transfer(b, fact)
		}
	}
	return fc.sum
}

// detParams returns the receiver (if any) followed by the parameters — the
// index space summaries use.
func detParams(fn *FuncInfo) []*types.Var {
	sig := fn.Type()
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

func (fc *detFuncCtx) transfer(b *Block, fact detFact) {
	for _, n := range b.Nodes {
		fc.scanNode(n, fact)
	}
	for _, r := range fc.ranges[b] {
		fc.bindRange(r, fact)
	}
}

// scanNode applies one block node's taint effects.
func (fc *detFuncCtx) scanNode(n ast.Node, fact detFact) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		fc.assign(s, fact)
	case *ast.ReturnStmt:
		fc.ret(s, fact)
	case *ast.DeferStmt:
		fc.eval(s.Call, fact)
	case *ast.GoStmt:
		fc.eval(s.Call, fact)
	case *ast.ExprStmt:
		fc.eval(s.X, fact)
	case *ast.IncDecStmt:
		fc.eval(s.X, fact)
	case *ast.SendStmt:
		fc.eval(s.Chan, fact)
		fc.eval(s.Value, fact)
	case *ast.DeclStmt:
		fc.declStmt(s, fact)
	case *ast.RangeStmt:
		fc.bindRange(s, fact)
	case ast.Expr:
		fc.eval(s, fact)
	}
}

func (fc *detFuncCtx) declStmt(s *ast.DeclStmt, fact detFact) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			results := fc.evalMulti(vs.Values[0], fact, len(vs.Names))
			for i, name := range vs.Names {
				fc.bind(name, results[i], fact)
			}
			continue
		}
		for i, v := range vs.Values {
			if i < len(vs.Names) {
				fc.bind(vs.Names[i], fc.eval(v, fact), fact)
			}
		}
	}
}

func (fc *detFuncCtx) assign(s *ast.AssignStmt, fact detFact) {
	compound := s.Tok != token.ASSIGN && s.Tok != token.DEFINE
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		results := fc.evalMulti(s.Rhs[0], fact, len(s.Lhs))
		for i, lhs := range s.Lhs {
			fc.bind(lhs, results[i], fact)
		}
		return
	}
	for i := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		marks := fc.eval(s.Rhs[i], fact)
		if compound {
			// Compound accumulation: values always propagate; ordering only
			// matters for non-commutative accumulators (float rounding,
			// string concatenation) — integer sums are order-insensitive.
			if !orderSensitiveAccum(fc.info, s.Lhs[i]) {
				marks = marks.filter(detValue)
			}
		}
		fc.bind(s.Lhs[i], marks, fact)
	}
}

// orderSensitiveAccum reports whether accumulating into e is sensitive to
// operand order (floats, complex, strings).
func orderSensitiveAccum(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return true // unknown: stay conservative
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return true
	}
	return b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

// bind unions marks into the root object of lhs. Writes into map indexes
// drop order markers: map insertion is set-semantic, so insertion order
// cannot leak.
func (fc *detFuncCtx) bind(lhs ast.Expr, marks detMarks, fact detFact) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	fc.checkFieldSink(lhs, marks)
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if tv, ok := fc.info.Types[ix.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				marks = marks.filter(detValue)
			}
		}
	}
	if len(marks) == 0 {
		return
	}
	root := rootObjExpr(fc.info, lhs)
	if root == nil {
		return
	}
	fact[root] = fact[root].union(marks)
}

// checkFieldSink treats a write into experiments.Report.Notes as a report
// sink: notes are printed verbatim by Report.Fprint.
func (fc *detFuncCtx) checkFieldSink(lhs ast.Expr, marks detMarks) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := objOf(fc.info, sel.Sel)
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Notes" {
		return
	}
	if obj.Pkg().Path() != fc.d.prog.ModulePath+"/internal/experiments" {
		return
	}
	fc.sink(marks, true, true, "report notes (Report.Notes)", lhs.Pos(), "")
}

// ret records return-value taint into the summary.
func (fc *detFuncCtx) ret(s *ast.ReturnStmt, fact detFact) {
	sig := fc.fn.Type()
	nres := sig.Results().Len()
	if len(s.Results) == 0 {
		// Bare return with named results.
		for i := 0; i < nres; i++ {
			fc.recordResult(i, fact[sig.Results().At(i)])
		}
		return
	}
	if len(s.Results) == 1 && nres > 1 {
		results := fc.evalMulti(s.Results[0], fact, nres)
		for i := range results {
			fc.recordResult(i, results[i])
		}
		return
	}
	for i, r := range s.Results {
		fc.recordResult(i, fc.eval(r, fact))
	}
}

func (fc *detFuncCtx) recordResult(i int, marks detMarks) {
	for m := range marks {
		if m.param >= 0 {
			f := fc.sum.flow(m.param)
			if m.class == detValue {
				f.valueToResults[i] = true
			} else {
				f.orderToResults[i] = true
			}
		} else {
			fc.sum.intrinsic[i] = fc.sum.intrinsic[i].union(detMarks{m: {}})
		}
	}
}

// eval computes the taint of a single-valued expression, applying call
// effects (sources, sinks, sanitizers, summaries) along the way.
func (fc *detFuncCtx) eval(e ast.Expr, fact detFact) detMarks {
	switch x := e.(type) {
	case *ast.Ident:
		return fact[objOf(fc.info, x)]
	case *ast.SelectorExpr:
		if s, ok := fc.info.Selections[x]; ok && s.Kind() != types.FieldVal {
			return nil // method value: no data taint
		}
		return fc.eval(x.X, fact)
	case *ast.CallExpr:
		return fc.evalMulti(x, fact, 1)[0]
	case *ast.BinaryExpr:
		return detMarks(nil).union(fc.eval(x.X, fact)).union(fc.eval(x.Y, fact))
	case *ast.UnaryExpr:
		return fc.eval(x.X, fact)
	case *ast.StarExpr:
		return fc.eval(x.X, fact)
	case *ast.ParenExpr:
		return fc.eval(x.X, fact)
	case *ast.IndexExpr:
		return detMarks(nil).union(fc.eval(x.X, fact)).union(fc.eval(x.Index, fact))
	case *ast.IndexListExpr:
		return fc.eval(x.X, fact)
	case *ast.SliceExpr:
		m := fc.eval(x.X, fact)
		for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
			if b != nil {
				m = detMarks(nil).union(m).union(fc.eval(b, fact))
			}
		}
		return m
	case *ast.CompositeLit:
		var m detMarks
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if _, isField := kv.Key.(*ast.Ident); !isField || fc.info.Types[kv.Key].IsValue() {
					m = m.union(fc.eval(kv.Key, fact))
				}
				m = m.union(fc.eval(kv.Value, fact))
				continue
			}
			m = m.union(fc.eval(el, fact))
		}
		return m
	case *ast.TypeAssertExpr:
		return fc.eval(x.X, fact)
	case *ast.FuncLit:
		fc.sweepLit(x, fact)
		return nil
	}
	return nil
}

// evalMulti computes the taint of each result of an n-valued expression.
func (fc *detFuncCtx) evalMulti(e ast.Expr, fact detFact, n int) []detMarks {
	out := make([]detMarks, n)
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		// v, ok := m[k] / x.(T) / <-ch: every binding shares the operand's
		// taint.
		m := fc.eval(e, fact)
		for i := range out {
			out[i] = m
		}
		return out
	}
	fc.callEffects(call, fact, out)
	return out
}

// callEffects is the heart of the analysis: resolves one call, applies
// sources, sanitizers, sinks and callee summaries, and fills the result
// taints.
func (fc *detFuncCtx) callEffects(call *ast.CallExpr, fact detFact, results []detMarks) {
	info := fc.info
	fun := ast.Unparen(call.Fun)

	// Type conversion: taint passes through.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			m := fc.eval(call.Args[0], fact)
			for i := range results {
				results[i] = m
			}
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			var m detMarks
			for _, a := range call.Args {
				m = m.union(fc.eval(a, fact))
			}
			switch id.Name {
			case "append", "min", "max", "len", "cap", "complex", "real", "imag":
				for i := range results {
					results[i] = m
				}
			}
			return
		}
	}

	// Argument taints: receiver (for method calls) then arguments, the
	// callee's parameter index space.
	var argMarks []detMarks
	var callee *types.Func
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			callee, _ = s.Obj().(*types.Func)
			argMarks = append(argMarks, fc.eval(sel.X, fact))
		} else if f, ok := info.Uses[sel.Sel].(*types.Func); ok {
			callee = f
		}
	} else if id, ok := fun.(*ast.Ident); ok {
		if f, ok := info.Uses[id].(*types.Func); ok {
			callee = f
		}
	} else {
		// Immediately-invoked literal or dynamic call: evaluate arguments
		// for their side effects, then compose the literal's summary if we
		// have one.
		for _, a := range call.Args {
			argMarks = append(argMarks, fc.eval(a, fact))
		}
		if lit, ok := fun.(*ast.FuncLit); ok {
			if li := fc.d.prog.LitOf(lit); li != nil {
				fc.applySummary(li, fc.get(li), argMarks, results, call.Pos())
			}
		}
		return
	}
	for _, a := range call.Args {
		argMarks = append(argMarks, fc.eval(a, fact))
	}

	// Sanitizers: sorting fixes iteration order.
	if fc.sanitize(callee, call, fact) {
		return
	}
	// External sources. The source marker replaces argument taint:
	// time.Since(start) is one nondeterministic value, not two (start's
	// time.Now marker would otherwise double-report every downstream sink).
	if desc, ok := detSource(callee); ok {
		m := detMarks{{class: detValue, param: -1, pos: call.Pos(), desc: desc}: {}}
		for i := range results {
			results[i] = m
		}
		return
	}
	// Direct sinks.
	if fc.directSink(callee, fun, call, argMarks) {
		return
	}

	// In-program callees: compose summaries.
	if targets := fc.d.graph.CalleesAt(fc.fn, call); len(targets) > 0 {
		for _, t := range targets {
			fc.applySummary(t, fc.get(t), argMarks, results, call.Pos())
		}
		return
	}

	// Unknown callee: propagate through value-shaping stdlib only.
	if callee != nil && callee.Pkg() != nil && detPropagatePkgs[callee.Pkg().Path()] {
		var m detMarks
		for _, am := range argMarks {
			m = m.union(am)
		}
		for i := range results {
			results[i] = m
		}
	}
}

// sanitize clears order taint of the argument of a sort call.
func (fc *detFuncCtx) sanitize(callee *types.Func, call *ast.CallExpr, fact detFact) bool {
	if callee == nil || callee.Pkg() == nil || len(call.Args) == 0 {
		return false
	}
	pkg := callee.Pkg().Path()
	name := callee.Name()
	isSort := (pkg == "sort" && name != "Search" && name != "SearchInts" && name != "SearchStrings" && name != "SearchFloat64s") ||
		(pkg == "slices" && (name == "Sort" || name == "SortFunc" || name == "SortStableFunc"))
	if !isSort {
		return false
	}
	if root := rootObjExpr(fc.info, call.Args[0]); root != nil {
		fact[root] = fact[root].filter(detValue)
	}
	// The sorted value is also the "result" for sort.* (in-place); nothing
	// to fill.
	for _, a := range call.Args[1:] {
		fc.eval(a, fact) // comparator literals may contain their own flows
	}
	return true
}

// detSource classifies an external callee as a nondeterminism source.
func detSource(callee *types.Func) (string, bool) {
	if callee == nil || callee.Pkg() == nil {
		return "", false
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return "", false // methods (e.g. on a seeded *rand.Rand) are not sources
	}
	pkg, name := callee.Pkg().Path(), callee.Name()
	switch pkg {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			return "wall clock (time." + name + ")", true
		}
	case "os":
		if name == "Getenv" || name == "LookupEnv" || name == "Environ" || name == "Hostname" || name == "Getpid" {
			return "process environment (os." + name + ")", true
		}
	case "runtime":
		if name == "GOMAXPROCS" || name == "NumCPU" || name == "NumGoroutine" {
			return "runtime environment (runtime." + name + ")", true
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return "", false
		}
		return "global rand source (" + pkg + "." + name + ")", true
	}
	return "", false
}

// directSink handles calls into the known determinism sinks. Returns true
// when the call was a sink (results carry no taint).
func (fc *detFuncCtx) directSink(callee *types.Func, fun ast.Expr, call *ast.CallExpr, argMarks []detMarks) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	pkg, name := callee.Pkg().Path(), callee.Name()
	recv := recvTypeName(callee)
	mod := fc.d.prog.ModulePath

	var argsOnly detMarks
	for i, am := range argMarks {
		if i == 0 && recv != "" {
			continue // receiver taint is not data written to the sink
		}
		argsOnly = argsOnly.union(am)
	}

	switch {
	case pkg == "encoding/gob" && recv == "Encoder" && (name == "Encode" || name == "EncodeValue"):
		fc.sink(argsOnly, true, true, "gob checkpoint encoder (Encoder."+name+")", call.Pos(), "")
		return true
	case pkg == mod+"/internal/experiments" && recv == "Table" && name == "AddRow":
		fc.sink(argsOnly, true, true, "report table (Table.AddRow)", call.Pos(), "")
		return true
	case pkg == mod+"/internal/obs":
		var stableSink, orderSink bool
		switch recv + "." + name {
		case "Counter.Add", "Counter.Inc", "Histogram.Observe", "Histogram.ObserveN", "Histogram.SetValues":
			stableSink = true // commutative: order taint is harmless
		case "Gauge.Set":
			stableSink, orderSink = true, true // last write wins
		}
		if !stableSink {
			return false
		}
		// Sanctioned when the instrument provably came from a Volatile*
		// constructor — stored in a tracked variable or field, or written
		// through directly (r.VolatileGauge(...).Set(v)).
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if root := volatileRoot(fc.info, sel.X); root != nil && fc.d.volatile[root] {
				return true
			}
			if isVolatileCtorCall(fc.info, mod+"/internal/obs", sel.X) {
				return true
			}
		}
		fc.sink(argsOnly, true, orderSink, "stable obs instrument ("+recv+"."+name+")", call.Pos(), "")
		return true
	}
	return false
}

// isVolatileCtorCall reports whether e is a direct call to an obs Volatile*
// instrument constructor.
func isVolatileCtorCall(info *types.Info, obsPath string, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
		return false
	}
	return fn.Name() == "VolatileGauge" || fn.Name() == "VolatileHistogram"
}

// volatileRoot resolves the instrument expression of an obs write to the
// variable or struct field it was stored in.
func volatileRoot(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objOf(info, x)
	case *ast.SelectorExpr:
		return objOf(info, x.Sel) // field object
	}
	return nil
}

// recvTypeName returns the base name of a method's receiver type, "" for
// plain functions.
func recvTypeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// sink processes tainted data meeting a sink: real markers report at the
// frontier, synthetic parameter markers record into the summary.
func (fc *detFuncCtx) sink(marks detMarks, valueSink, orderSink bool, desc string, pos token.Pos, via string) {
	for m := range marks {
		hit := (m.class == detValue && valueSink) || (m.class == detOrder && orderSink)
		if !hit {
			continue
		}
		if m.param >= 0 {
			f := fc.sum.flow(m.param)
			if m.class == detValue {
				f.sinkValue = true
			} else {
				f.sinkOrder = true
			}
			if f.sinkDesc == "" {
				f.sinkDesc = desc
			}
			continue
		}
		if fc.rep {
			msg := fmt.Sprintf("%s from %s (%s) reaches %s", m.class, m.desc, fc.d.prog.Position(m.pos), desc)
			if via != "" {
				msg += " through call to " + via
			}
			fc.d.prog.Reportf(pos, "detflow", msg)
		}
	}
}

// applySummary composes a callee summary at a call site: sink-reaching
// parameters act as sinks for the corresponding arguments, param→result
// flows and intrinsic source taint fill the results.
func (fc *detFuncCtx) applySummary(target *FuncInfo, su *detSummary, argMarks []detMarks, results []detMarks, pos token.Pos) {
	if su == nil {
		return
	}
	for i, am := range argMarks {
		pi := i
		if su.arity > 0 && pi >= su.arity {
			pi = su.arity - 1 // variadic tail
		}
		f := su.params[pi]
		if f == nil {
			continue
		}
		if f.sinkValue || f.sinkOrder {
			fc.sink(am, f.sinkValue, f.sinkOrder, f.sinkDesc, pos, shortFuncName(target.Name))
		}
		for r := range f.valueToResults {
			if r < len(results) {
				results[r] = results[r].union(am.filter(detValue))
			}
		}
		for r := range f.orderToResults {
			if r < len(results) {
				results[r] = results[r].union(am.filter(detOrder))
			}
		}
	}
	for r, m := range su.intrinsic {
		if r < len(results) {
			results[r] = results[r].union(m)
		}
	}
}

// shortFuncName trims the module-path noise off a FuncInfo name for
// messages, keeping a method's receiver form:
// "(*mct/internal/sim.Machine).step$1" becomes "(*sim.Machine).step$1".
func shortFuncName(name string) string {
	rest := strings.TrimLeft(name, "(*")
	return name[:len(name)-len(rest)] + rest[strings.LastIndexByte(rest, '/')+1:]
}

// bindRange binds a range statement's key/value variables: collection
// taint propagates, and ranging a map intrinsically adds order taint.
func (fc *detFuncCtx) bindRange(r *ast.RangeStmt, fact detFact) {
	xm := fc.eval(r.X, fact)
	m := detMarks(nil).union(xm)
	if tv, ok := fc.info.Types[r.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			m = m.union(detMarks{{class: detOrder, param: -1, pos: r.Pos(), desc: "map iteration order"}: {}})
		}
	}
	if len(m) == 0 {
		return
	}
	for _, v := range []ast.Expr{r.Key, r.Value} {
		if v != nil {
			fc.bind(v, m, fact)
		}
	}
}

// sweepLit analyzes a nested function literal flow-insensitively inside
// the enclosing facts: captured variables share type-checker objects, so
// taint flows in and out of the closure through the shared map.
func (fc *detFuncCtx) sweepLit(lit *ast.FuncLit, fact detFact) {
	if fc.inLit[lit] {
		return
	}
	fc.inLit[lit] = true
	defer delete(fc.inLit, lit)
	for pass := 0; pass < 4; pass++ {
		before := factSize(fact)
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncLit:
				if s != lit {
					fc.sweepLit(s, fact)
					return false
				}
			case *ast.AssignStmt:
				fc.assign(s, fact)
				return false
			case *ast.ReturnStmt:
				return false // the literal's own results; out of scope here
			case *ast.ExprStmt:
				fc.eval(s.X, fact)
				return false
			case *ast.DeferStmt:
				fc.eval(s.Call, fact)
				return false
			case *ast.GoStmt:
				fc.eval(s.Call, fact)
				return false
			case *ast.SendStmt:
				fc.eval(s.Chan, fact)
				fc.eval(s.Value, fact)
				return false
			case *ast.DeclStmt:
				fc.declStmt(s, fact)
				return false
			case *ast.RangeStmt:
				fc.bindRange(s, fact)
				return true // body statements still need the walk
			case *ast.IfStmt:
				fc.eval(s.Cond, fact)
			case *ast.ForStmt:
				if s.Cond != nil {
					fc.eval(s.Cond, fact)
				}
			case *ast.SwitchStmt:
				if s.Tag != nil {
					fc.eval(s.Tag, fact)
				}
			case *ast.IncDecStmt:
				return false
			}
			return true
		})
		if factSize(fact) == before {
			break
		}
	}
}

// rootObjExpr peels selectors, indexes, derefs and slices off an expression
// down to its base identifier's object.
func rootObjExpr(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return objOf(info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}
