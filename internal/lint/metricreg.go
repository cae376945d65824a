package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// MetricReg guards the /metrics contract at its one entry point: a
// family is declared by a call on the obs metrics registry
// (Registry.Histogram, CounterFunc or GaugeFunc), and each
// literal family name appears in exactly one such call per package.
// Several owners may feed one family — every cache registers its own
// cache="..." series — but from one call site, so a family's help,
// type and label names are spelled once. The registry itself panics on
// a conflicting shape at run time; the analyzer catches the second
// spelling before anything runs.
var MetricReg = &Analyzer{
	Name:      "metricreg",
	Doc:       "every /metrics family must be declared by exactly one registry call per package",
	SkipTests: true,
	Run:       runMetricReg,
}

// registryMethods are the Registry calls that declare a family; the
// family name is their first argument.
var registryMethods = map[string]bool{"Histogram": true, "CounterFunc": true, "GaugeFunc": true}

func runMetricReg(p *Pass) {
	sites := make(map[string][]token.Pos)
	var order []string
	for _, f := range p.Files {
		// Test files register scratch families at will; only the
		// production exposition counts.
		if strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || !isRegistryCall(p.Info, call) {
				return true
			}
			// A computed family name is not statically known.
			if name, ok := stringLit(call.Args[0]); ok {
				if _, seen := sites[name]; !seen {
					order = append(order, name)
				}
				sites[name] = append(sites[name], call.Pos())
			}
			return true
		})
	}
	for _, name := range order {
		if at := sites[name]; len(at) > 1 {
			p.Reportf(at[1], "metric family %q is registered %d times in this package; declare it in exactly one registry call", name, len(at))
		}
	}
}

// isRegistryCall reports whether call invokes a family-declaring
// method on a type named Registry. The match is by name so fixtures
// need not import the real package.
func isRegistryCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || !registryMethods[fn.Name()] {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && namedOf(recv.Type()) != nil && namedOf(recv.Type()).Obj().Name() == "Registry"
}

// stringLit unwraps a string literal (possibly parenthesized),
// returning its unquoted value.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
