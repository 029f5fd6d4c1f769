package capnn

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every backticked Test*, Benchmark* or Fuzz* name in the prose docs is
// a func in some _test.go of this module, so a rename or a deletion that
// leaves a doc pointing at nothing fails here. Inside a `go test -run` or
// `-bench` pattern a name is a regexp alternative, so there it need only
// begin some func's name.
func TestDocsNameRealTests(t *testing.T) {
	funcs := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "benchmark" || d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir // benchmark/ is its own module
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	found := func(n string, pattern bool) bool {
		if funcs[n] {
			return true
		}
		for f := range funcs {
			if pattern && strings.HasPrefix(f, n) {
				return true
			}
		}
		return false
	}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(src), -1) {
			pattern := strings.Contains(s, "-run") || strings.Contains(s, "-bench")
			for _, n := range name.FindAllString(s, -1) {
				checked++
				if !found(n, pattern) {
					t.Errorf("%s names %s, which no _test.go declares", doc, n)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no test names found in the docs: the scan is broken")
	}
}
