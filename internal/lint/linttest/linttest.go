// Package linttest is the fixture harness for internal/lint — the
// analysistest contract reimplemented on the stdlib: load a fixture
// directory as a pretend package, run one analyzer, and diff its
// diagnostics against the fixture's `// want "regexp"` comments.
// It lives in its own package so the simdlint binary never links
// the testing machinery.
package linttest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe matches one quoted expectation inside a `// want "..."`
// comment. Multiple quoted patterns on one comment expect multiple
// diagnostics on that line.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// Run loads the fixture package at dir under importPath, runs the
// analyzer, and matches diagnostics against want comments: every
// diagnostic must be wanted on its line, every want must fire. A
// fixture with no want comments pins the analyzer to zero findings —
// the false-positive regression form.
//
//simd:oracle fixture harness; the analyzer tests drive it
func Run(t *testing.T, a *lint.Analyzer, dir, importPath string) {
	t.Helper()
	pkg, err := lint.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					pat := strings.ReplaceAll(m[1], `\"`, `"`)
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}

	diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
	if t.Failed() {
		var all []string
		for _, d := range diags {
			all = append(all, fmt.Sprint(d))
		}
		t.Logf("all diagnostics from %s:\n%s", dir, strings.Join(all, "\n"))
	}
}
