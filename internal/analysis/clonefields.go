package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// cloneMethodNames are the snapshot-contract methods whose whole job is to
// account for every receiver field.
var cloneMethodNames = map[string]bool{
	"Clone":        true,
	"Snapshot":     true,
	"SnapshotView": true,
	"snapshotView": true,
	"Restore":      true,
}

// recvStruct resolves a method receiver to its named struct type, seeing
// through one level of pointer. It returns nil for non-struct receivers.
func recvStruct(pass *Pass, recv *ast.FieldList) *types.Struct {
	if recv == nil || len(recv.List) != 1 {
		return nil
	}
	tv, ok := pass.Info.Types[recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	return st
}

// CloneFields flags Clone/Snapshot/SnapshotView/Restore methods on struct
// receivers that never reference one or more receiver fields. Those methods
// exist to account for every field — a field a Clone never mentions is state
// the copy silently shares with (or drops from) its parent, which breaks the
// simulator's snapshot contract in ways only long equivalence runs catch.
//
// A whole-struct copy (n := *c, or a bare use of a value receiver) counts as
// referencing every field; composite-literal field keys and selector
// accesses through any value — receiver or local copy — count as
// referencing the named field. Fields that are deliberately derived or
// rebuilt elsewhere can be suppressed with //mctlint:ignore clonefields and
// a reason.
var CloneFields = &Analyzer{
	Name: "clonefields",
	Doc:  "Clone/Snapshot/SnapshotView/Restore methods must reference every receiver field (or suppress with a reason)",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !cloneMethodNames[fn.Name.Name] {
					continue
				}
				st := recvStruct(pass, fn.Recv)
				if st == nil || st.NumFields() == 0 {
					continue
				}
				fields := map[*types.Var]bool{}
				for i := 0; i < st.NumFields(); i++ {
					fields[st.Field(i)] = false
				}
				var recvObj types.Object
				if names := fn.Recv.List[0].Names; len(names) == 1 && names[0].Name != "_" {
					recvObj = pass.Info.Defs[names[0]]
				}

				// selBase holds identifiers appearing as the x of an x.f
				// selector: those uses read a single field, not the whole
				// receiver.
				selBase := map[*ast.Ident]bool{}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok {
							selBase[id] = true
						}
					}
					return true
				})

				whole := false
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					// Field references: selector idents (x.field) and keyed
					// composite-literal fields (T{field: ...}) both resolve
					// to the field object in Info.Uses.
					if obj, isVar := pass.Info.Uses[id].(*types.Var); isVar {
						if _, isField := fields[obj]; isField {
							fields[obj] = true
							return true
						}
					}
					// A use of the receiver outside a selector base copies or
					// hands off the whole value (n := *c, return c, f(c)) and
					// accounts for every field at once.
					if recvObj != nil && pass.Info.Uses[id] == recvObj && !selBase[id] {
						whole = true
					}
					return true
				})
				if whole {
					continue
				}

				var missing []string
				for v, seen := range fields {
					if !seen {
						missing = append(missing, v.Name())
					}
				}
				if len(missing) == 0 {
					continue
				}
				sort.Strings(missing)
				pass.Reportf(fn.Name.Pos(), "clonefields",
					"%s on %s never references receiver field(s) %s: unreferenced state is silently shared or dropped by the copy",
					fn.Name.Name, typeName(pass, fn.Recv), strings.Join(missing, ", "))
			}
		}
	},
}

// typeName renders the receiver type for diagnostics (pointer elided).
func typeName(pass *Pass, recv *ast.FieldList) string {
	tv, ok := pass.Info.Types[recv.List[0].Type]
	if !ok {
		return "receiver"
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
