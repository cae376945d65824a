package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The per-package analyzers cannot see that a declaration has no
// caller: that is a whole-program fact. DeadCode loads every non-test
// package of the module, and of every module nested inside it (the
// benchmark module uses this one through a replace directive), and
// reports each package-level declaration under internal/ that none of
// that code uses. Tests are not users: an API only tests reach is an
// API no binary reaches.

// tagOracle exempts a declaration that exists for tests to compare
// against (a reference model, a fault harness). The reason is required.
const tagOracle = "//simd:oracle"

// dynamicMethods are found by the standard library through an
// anonymous interface assertion, so no interface type in the program
// names them: errors.Unwrap/Is/As and http.ResponseController's
// Unwrap() http.ResponseWriter.
var dynamicMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// listedPackage is the subset of `go list -json` output DeadCode reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// decl is one package-level declaration under internal/.
type decl struct {
	kind       string
	start, end token.Pos // the declaration's own extent; uses inside it do not count
	oracle     string    // text after //simd:oracle
	hasOracle  bool
}

// DeadCode reports every package-level func, method, type, var and
// const declared in a non-test file under root/internal/ that no
// non-test file of the module at root, or of a module nested under
// it, uses. A method counts as used when its type satisfies an
// interface in the program or the standard library finds it by
// dynamic assertion. A declaration whose doc comment carries
// //simd:oracle <why> is exempt; the tag without a reason, or on a
// declaration that is used, is itself a finding. Positions are
// relative to root.
//
//simd:oracle the guard; TestModuleHasNoDeadCode runs it, so the lint test step enforces it
func DeadCode(root string) ([]Diagnostic, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	pkgs, std, err := loadProgram(root)
	if err != nil {
		return nil, err
	}
	decls := make(map[types.Object]*decl)
	for _, p := range pkgs {
		if rel, err := filepath.Rel(root, p.dir); err == nil && strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/") {
			collectDecls(p, decls)
		}
	}
	used := uses(pkgs, std, decls)

	var diags []Diagnostic
	for obj, d := range decls {
		name := obj.Pkg().Name() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				name = obj.Pkg().Name() + "." + recvName(recv.Type()) + "." + obj.Name()
			}
		}
		var msg string
		switch {
		case d.hasOracle && d.oracle == "":
			msg = fmt.Sprintf("%s %s: %s needs a reason", d.kind, name, tagOracle)
		case d.hasOracle && used[obj]:
			msg = fmt.Sprintf("%s %s carries %s but non-test code uses it; drop the tag", d.kind, name, tagOracle)
		case !d.hasOracle && !used[obj]:
			msg = fmt.Sprintf("%s %s has no non-test use; delete it, move it into a test file, or mark it %s <why>", d.kind, name, tagOracle)
		default:
			continue
		}
		pos := pkgs[0].Fset.Position(obj.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		diags = append(diags, Diagnostic{Analyzer: "deadcode", Pos: pos, Message: msg})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags, nil
}

// loadedPackage is one type-checked module package and its directory.
type loadedPackage struct {
	Package
	dir string
}

// loadProgram type-checks every non-test package of the module at
// root and of the modules nested under it, and returns them with the
// standard-library packages they import. The standard library comes
// from compiled export data; module packages are checked from source
// in the dependency order `go list -deps` gives.
func loadProgram(root string) ([]*loadedPackage, map[string]bool, error) {
	mods, err := moduleDirs(root)
	if err != nil {
		return nil, nil, err
	}
	var listed []*listedPackage
	seen := make(map[string]bool)
	for _, dir := range mods {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pkgs {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				listed = append(listed, p)
			}
		}
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := make(map[string]*types.Package)
	conf := &types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return gc.Import(path)
	})}

	var pkgs []*loadedPackage
	std := make(map[string]bool)
	for _, p := range listed {
		if p.Standard {
			std[p.ImportPath] = true
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		pkgs = append(pkgs, &loadedPackage{Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, p.Dir})
	}
	if len(pkgs) == 0 {
		return nil, nil, fmt.Errorf("lint: no packages under %s", root)
	}
	return pkgs, std, nil
}

// uses returns every object some package uses outside its own
// declaration, plus the methods that satisfy an interface of the
// program and the dynamically found ones among decls.
func uses(pkgs []*loadedPackage, std map[string]bool, decls map[types.Object]*decl) map[types.Object]bool {
	used := make(map[types.Object]bool)
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []*types.Named
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			if d := decls[obj]; d != nil && d.start <= id.Pos() && id.Pos() < d.end {
				continue // a declaration does not keep itself alive
			}
			used[obj] = true
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		scopeTypes(p.Pkg, false, &ifaces, &named)
		for _, imp := range p.Pkg.Imports() {
			if std[imp.Path()] {
				scopeTypes(imp, true, &ifaces, nil)
			}
		}
	}
	markInterfaceMethods(named, ifaces, used)
	for obj, d := range decls {
		if d.kind == "method" && dynamicMethods[obj.Name()] {
			used[obj] = true
		}
	}
	return used
}

// moduleDirs returns root followed by every directory under it that
// holds its own go.mod, skipping testdata, vendor and dot directories.
func moduleDirs(root string) ([]string, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root {
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
		}
		if !d.IsDir() && d.Name() == "go.mod" && filepath.Dir(path) != root {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
}

// goList lists every package of the module at dir with its
// dependencies, building export data for the standard library.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// collectDecls records every package-level declaration of p.
func collectDecls(p *loadedPackage, decls map[types.Object]*decl) {
	add := func(id *ast.Ident, kind string, start, end token.Pos, docs ...*ast.CommentGroup) {
		obj := p.Info.Defs[id]
		if obj == nil || id.Name == "_" || id.Name == "init" {
			return
		}
		d := &decl{kind: kind, start: start, end: end}
		d.oracle, d.hasOracle = oracleReason(docs...)
		decls[obj] = d
	}
	for _, f := range p.Files {
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				kind := "func"
				if gd.Recv != nil {
					kind = "method"
				}
				add(gd.Name, kind, gd.Pos(), gd.End(), gd.Doc)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "type", s.Pos(), s.End(), s.Doc, gd.Doc)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, gd.Tok.String(), s.Pos(), s.End(), s.Doc, gd.Doc)
						}
					}
				}
			}
		}
	}
}

// oracleReason finds //simd:oracle in the first doc comment that
// carries it and returns the prose after the tag.
func oracleReason(docs ...*ast.CommentGroup) (string, bool) {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			text := strings.TrimSpace(c.Text)
			if text == tagOracle || strings.HasPrefix(text, tagOracle+" ") {
				return strings.TrimSpace(strings.TrimPrefix(text, tagOracle)), true
			}
		}
	}
	return "", false
}

// scopeTypes appends pkg's package-level interfaces to ifaces (only
// the exported ones when exportedOnly) and, when named is non-nil,
// its other non-generic named types to named.
func scopeTypes(pkg *types.Package, exportedOnly bool, ifaces *[]*types.Interface, named *[]*types.Named) {
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok || (exportedOnly && !tn.Exported()) {
			continue
		}
		nt, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if it, ok := nt.Underlying().(*types.Interface); ok {
			*ifaces = append(*ifaces, it)
		} else if named != nil && nt.TypeParams() == nil {
			*named = append(*named, nt)
		}
	}
}

// markInterfaceMethods marks, for every named type whose method set
// satisfies an interface, the methods that satisfy it.
func markInterfaceMethods(named []*types.Named, ifaces []*types.Interface, used map[types.Object]bool) {
	for _, nt := range named {
		ptr := types.NewPointer(nt)
		ms := types.NewMethodSet(ptr)
		if ms.Len() == 0 {
			continue
		}
		have := make(map[string]bool, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			have[ms.At(i).Obj().Name()] = true
		}
	next:
		for _, it := range ifaces {
			if it.NumMethods() == 0 {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if !have[it.Method(i).Name()] {
					continue next
				}
			}
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}
}

// origin maps an instantiated generic function, method or field to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
