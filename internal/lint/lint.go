// Package lint is the repo's static-analysis suite: a small,
// dependency-free analysis framework (the repo rule is no new
// modules, so this is a stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis shape) plus the six analyzers that
// machine-enforce invariants which previously lived only in reviewer
// memory:
//
//   - canonicalkey: cache/journal/result keys must be built with the
//     injective internal/keys.Builder, never fmt.Sprintf or string
//     concatenation hashed directly.
//   - guardedby: struct fields annotated `// guarded by <mu>` must
//     only be touched while <mu> is held.
//   - ctxflow: no context.Background()/TODO() inside the
//     internal/service request path, and exported functions must not
//     silently drop an incoming ctx.
//   - hotpath: functions annotated //simd:hotpath must avoid
//     allocating constructs (fmt, unsized append growth, interface
//     boxing, escaping closures).
//   - errenvelope: internal/service handlers must emit errors through
//     the shared envelope writer, never naked http.Error.
//   - metricreg: every metric family rendered at /metrics is
//     declared by exactly one obs registry call per package.
//
// cmd/simdlint packages the suite as a `go vet -vettool` multichecker
// and as the escape-analysis guard that pins //simd:hotpath functions
// to zero heap allocation (see escapes.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and flags.
	Name string
	// Doc is the one-line description shown by `simdlint help`.
	Doc string
	// Run performs the analysis over one package.
	Run func(*Pass)
	// SkipTests, when true (the default for every analyzer in this
	// suite), suppresses diagnostics positioned in _test.go files:
	// the invariants are about production code, and tests routinely
	// violate them on purpose (spelling keys by hand to pin hashes,
	// poking guarded fields directly, ...).
	SkipTests bool
}

// Pass carries one package's parsed and type-checked state into an
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos. Findings in _test.go files are
// dropped for SkipTests analyzers.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Analyzer.SkipTests && strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package bundles one loaded package for the drivers.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// RunAnalyzers applies every analyzer to the package and returns the
// findings in source order of discovery.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	return diags
}

// Analyzers is the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CanonicalKey,
		GuardedBy,
		CtxFlow,
		HotPath,
		ErrEnvelope,
		MetricReg,
	}
}

// NewInfo builds a types.Info with every map analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
