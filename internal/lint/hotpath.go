package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzeHotPath enforces allocation discipline inside functions marked
// with a //skewlint:hotpath directive — the partition scatter loops, the
// probe/emit loops, and the output ring writers, where a single stray
// allocation per tuple turns a memory-bound loop into a GC benchmark.
// Inside a marked function (closures included) it flags:
//
//   - any call into the fmt package (formatting allocates),
//   - time.Now (a vDSO call per tuple is still a call per tuple; hot
//     paths are timed by their callers at phase granularity),
//   - map allocation (make(map...) or a map literal), and
//   - append to a slice that was not preallocated with make in the same
//     function (growth reallocations inside the loop).
//
// The directive goes on the function declaration's doc comment:
//
//	//skewlint:hotpath
//	func scatter(...) { ... }
func analyzeHotPath(l *Loader, pkgs []*Package) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, "skewlint:hotpath") {
					continue
				}
				findings = append(findings, checkHotPathFunc(l, pkg, fd)...)
			}
		}
	}
	return findings
}

// hasDirective reports whether the comment group contains the given
// //-directive (exact word, optionally followed by arguments).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//"+directive)
		if ok && (text == "" || text[0] == ' ' || text[0] == '\t') {
			return true
		}
	}
	return false
}

func checkHotPathFunc(l *Loader, pkg *Package, fd *ast.FuncDecl) []Finding {
	// First pass: locals preallocated via make (any form; make with an
	// explicit length or capacity is what the rule is after, and make is
	// only legal with one for slices).
	prealloc := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltin(pkg.Info, call, "make") {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := identObject(pkg.Info, id); obj != nil {
					prealloc[obj] = true
				}
			}
		}
		return true
	})

	var findings []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pkg.Info, n); fn != nil && fn.Pkg() != nil {
				switch {
				case fn.Pkg().Path() == "fmt":
					findings = append(findings, l.finding(n.Pos(), RuleHotPath,
						"fmt.%s call in hot-path function %s (formatting allocates per call)", fn.Name(), fd.Name.Name))
				case fn.Pkg().Path() == "time" && fn.Name() == "Now":
					findings = append(findings, l.finding(n.Pos(), RuleHotPath,
						"time.Now in hot-path function %s; time at phase granularity in the caller instead", fd.Name.Name))
				}
				return true
			}
			switch {
			case isBuiltin(pkg.Info, n, "make") && len(n.Args) > 0 && isMapType(pkg.Info, n.Args[0]):
				findings = append(findings, l.finding(n.Pos(), RuleHotPath,
					"map allocation in hot-path function %s", fd.Name.Name))
			case isBuiltin(pkg.Info, n, "append"):
				if len(n.Args) > 0 && !appendTargetPreallocated(pkg.Info, n.Args[0], prealloc) {
					findings = append(findings, l.finding(n.Pos(), RuleHotPath,
						"append without preallocated capacity in hot-path function %s (make the slice with a capacity first)", fd.Name.Name))
				}
			}
		case *ast.CompositeLit:
			if isMapType(pkg.Info, n) {
				findings = append(findings, l.finding(n.Pos(), RuleHotPath,
					"map literal allocation in hot-path function %s", fd.Name.Name))
			}
		}
		return true
	})
	return findings
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isMapType reports whether the expression's type is a map.
func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Map)
	return ok
}

// identObject resolves an identifier to its object, whether this mention
// defines it (:=) or uses it (=).
func identObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// appendTargetPreallocated reports whether append's destination is a
// local slice preallocated with make in the same function.
func appendTargetPreallocated(info *types.Info, dst ast.Expr, prealloc map[types.Object]bool) bool {
	id, ok := ast.Unparen(dst).(*ast.Ident)
	if !ok {
		return false
	}
	obj := identObject(info, id)
	return obj != nil && prealloc[obj]
}
