package lint_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture directory carries both the violations the analyzer
// must flag (pinned by `// want` comments) and false-positive
// regression cases that must stay silent.

func TestCanonicalKey(t *testing.T) {
	linttest.Run(t, lint.CanonicalKey, "testdata/canonicalkey", "repro/internal/ckfix")
}

func TestCanonicalKeyExemptsKeysPackage(t *testing.T) {
	// The same shapes inside internal/keys itself are the
	// implementation, not violations.
	pkg, err := lint.LoadDir("testdata/canonicalkey", "repro/internal/keys")
	if err != nil {
		t.Fatal(err)
	}
	if diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.CanonicalKey}); len(diags) != 0 {
		t.Fatalf("canonicalkey must not fire inside repro/internal/keys; got %v", diags)
	}
}

func TestGuardedBy(t *testing.T) {
	linttest.Run(t, lint.GuardedBy, "testdata/guardedby", "repro/internal/gbfix")
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, "testdata/ctxflow", "repro/internal/service")
}

func TestCtxFlowScopedToService(t *testing.T) {
	// Outside the request path the fresh-context rule is off; only the
	// dropped-ctx rule remains.
	pkg, err := lint.LoadDir("testdata/ctxflow", "repro/internal/tracestore")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.CtxFlow}) {
		if strings.Contains(d.Message, "mints a fresh context") {
			t.Errorf("fresh-context rule fired outside the service path: %v", d)
		}
	}
}

func TestHotPath(t *testing.T) {
	linttest.Run(t, lint.HotPath, "testdata/hotpath", "repro/internal/hpfix")
}

func TestErrEnvelope(t *testing.T) {
	linttest.Run(t, lint.ErrEnvelope, "testdata/errenvelope", "repro/internal/service")
}

func TestMetricReg(t *testing.T) {
	linttest.Run(t, lint.MetricReg, "testdata/metricreg", "repro/internal/mrfix")
}

// TestEscapeCheckCleanPackage pins the escape guard against the real
// tree: the annotated hot functions in internal/cache must stay
// allocation-free.
func TestEscapeCheckCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a package; skipped in -short")
	}
	diags, err := lint.EscapeCheck("../..", []string{"./internal/cache/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("internal/cache hot paths allocate:\n%v", diags)
	}
}

// TestEscapeCheckFlagsAllocation builds a throwaway module whose
// annotated function provably allocates and expects the guard to say
// so.
func TestEscapeCheckFlagsAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a package; skipped in -short")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module escfix\n\ngo 1.22\n",
		"esc.go": `package escfix

// leak forces x to the heap.
//
//simd:hotpath
func leak() *int {
	x := 42
	return &x
}

// amortized is the sanctioned opt-out.
//
//simd:hotpath
func amortized() []byte {
	return make([]byte, 64) //simd:alloc-ok warm-up growth
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := lint.EscapeCheck(dir, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the leak finding, got %v", diags)
	}
	if diags[0].Message == "" || diags[0].Pos.Filename != "esc.go" {
		t.Fatalf("unexpected diagnostic: %v", diags[0])
	}
}

// TestDeadCode runs the guard over a fake module and the second
// module that reaches it through a replace directive. Findings are
// pinned by `// want "regexp"` comments in any .go file of either.
func TestDeadCode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list; skipped in -short")
	}
	const dir = "testdata/deadcode"
	wants := make(map[string][]*regexp.Regexp) // "file:line" -> patterns
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pat, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pat, err := strconv.Unquote(pat)
				if err != nil {
					return fmt.Errorf("%s: %v", fset.Position(c.Pos()), err)
				}
				key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(c.Pos()).Line)
				wants[key] = append(wants[key], regexp.MustCompile(pat))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.DeadCode(dir)
	if err != nil {
		t.Fatal(err)
	}
next:
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				continue next
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s: expected diagnostic matching %q, got none", key, re)
		}
	}
}

// TestModuleHasNoDeadCode runs the dead-code guard over the repository:
// every package-level declaration under internal/ must have a non-test
// user in this module or in simbench, or carry //simd:oracle <why>.
func TestModuleHasNoDeadCode(t *testing.T) {
	if testing.Short() {
		t.Skip("lists and type-checks the whole module; skipped in -short")
	}
	diags, err := lint.DeadCode("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
