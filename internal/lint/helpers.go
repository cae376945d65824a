package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// calleeObject resolves a call expression to the declared function or
// method object it invokes, or nil for calls through function values,
// conversions and builtins.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj() // method or field selection
		}
		return info.Uses[fun.Sel] // qualified identifier (pkg.Func)
	}
	return nil
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObject(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// annotation tags recognized in function doc comments and line
// comments. They deliberately use the //simd: prefix so gofmt leaves
// them attached and grep finds every use.
const (
	tagHotPath = "//simd:hotpath"
	tagAllocOK = "//simd:alloc-ok"
	tagLocked  = "//simd:locked"
	tagCtxRoot = "//simd:ctxroot"
)

// funcAnnotated reports whether the function's doc comment carries
// the given //simd: tag (alone or followed by prose).
func funcAnnotated(fd *ast.FuncDecl, tag string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == tag || strings.HasPrefix(text, tag+" ") {
			return true
		}
	}
	return false
}

// lineAnnotated reports whether any comment on the same line as pos
// carries the given tag — the per-finding opt-out spelling
// (`expr //simd:alloc-ok reason`).
func lineAnnotated(fset *token.FileSet, file *ast.File, pos token.Pos, tag string) bool {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if fset.Position(c.Pos()).Line != line {
				continue
			}
			text := strings.TrimSpace(c.Text)
			if text == tag || strings.HasPrefix(text, tag+" ") {
				return true
			}
		}
	}
	return false
}

// isInterface reports whether t's underlying type is an interface.
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// recvObject returns the receiver variable object of a method
// declaration, or nil for plain functions and anonymous receivers.
func recvObject(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	obj, _ := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return obj
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// stmtTerminates reports whether a statement unconditionally leaves
// the enclosing function (return, panic, os.Exit, log.Fatal*): the
// lock-state walker uses it to know a branch's exit state never
// merges back.
func stmtTerminates(info *types.Info, s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && info.Uses[id] == nil {
			return true
		}
		if isPkgFunc(info, call, "os", "Exit") {
			return true
		}
		if obj := calleeObject(info, call); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "log" && strings.HasPrefix(obj.Name(), "Fatal") {
			return true
		}
	}
	return false
}
