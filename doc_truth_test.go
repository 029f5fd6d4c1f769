package capnn

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// proseDocs are the documents whose code spans must name real things.
var proseDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`]+`")

// codeSpans returns doc's fenced blocks and inline code spans.
func codeSpans(t *testing.T, doc string) []string {
	t.Helper()
	src, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	return codeSpan.FindAllString(string(src), -1)
}

// goSources calls fn with the path and contents of each Go file under
// root: "." walks this module, "benchmark" the nested benchmark module.
func goSources(t *testing.T, root string, fn func(path string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir // benchmark/ is its own module; .git, build caches
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		fn(path, src)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testFuncs is the set of Test*, Benchmark* and Fuzz* funcs some
// _test.go of this module declares.
type testFuncs map[string]bool

func declaredTests(t *testing.T) testFuncs {
	funcs := testFuncs{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	goSources(t, ".", func(path string, src []byte) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
	})
	return funcs
}

// names reports whether n is a declared func, or with prefix set begins
// one.
func (funcs testFuncs) names(n string, prefix bool) bool {
	if funcs[n] || !prefix {
		return funcs[n]
	}
	for f := range funcs {
		if strings.HasPrefix(f, n) {
			return true
		}
	}
	return false
}

// Every backticked Test*, Benchmark* or Fuzz* name in the prose docs is
// a func in some _test.go of this module, so a rename or a deletion that
// leaves a doc pointing at nothing fails here. Inside a `go test -run` or
// `-bench` pattern a name is a regexp alternative, so there it need only
// begin some func's name.
func TestDocsNameRealTests(t *testing.T) {
	funcs := declaredTests(t)
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	checked := 0
	for _, doc := range proseDocs {
		for _, s := range codeSpans(t, doc) {
			pattern := strings.Contains(s, "-run") || strings.Contains(s, "-bench")
			for _, n := range name.FindAllString(s, -1) {
				checked++
				if !funcs.names(n, pattern) {
					t.Errorf("%s names %s, which no _test.go declares", doc, n)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no test names found in the docs: the scan is broken")
	}
}

// Every alternative of every -run, -bench and -fuzz pattern in CI begins
// the name of a func some _test.go of this module declares, and an
// anchored ^X$ is one exactly: go test exits 0 when a pattern matches
// nothing, so a renamed test would silently empty the step that runs it.
// A '^$' pattern runs nothing on purpose and names nothing.
func TestCINamesRealTests(t *testing.T) {
	funcs := declaredTests(t)
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(?:run|bench|fuzz)[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	checked := 0
	for _, m := range flag.FindAllStringSubmatch(string(src), -1) {
		for _, alt := range strings.Split(m[1]+m[2]+m[3], "|") {
			alt, _, _ = strings.Cut(alt, "/") // a subtest level is not a func name
			n, anchored := strings.TrimPrefix(alt, "^"), strings.HasPrefix(alt, "^")
			n, exact := strings.CutSuffix(n, "$")
			if n == "" {
				continue
			}
			checked++
			if !funcs.names(n, !(anchored && exact)) {
				t.Errorf("ci.yml runs %q, which names no func any _test.go declares", alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no test patterns found in ci.yml: the scan is broken")
	}
}

// The prose docs name only benchmark workloads that BENCHMARK.json
// declares, and only BENCH_*.json files that are checked in. A workload
// the benchmark module defines but does not gate, or a results file that
// is not in the tree, is a number no reader can re-run or look up.
func TestDocsNameDeclaredWorkloadsAndBenchFiles(t *testing.T) {
	src, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(src, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range bench.Workloads {
		declared[w.Name] = true
	}
	defs, err := os.ReadFile("benchmark/workloads.go")
	if err != nil {
		t.Fatal(err)
	}
	undeclared := map[string]*regexp.Regexp{}
	defined := regexp.MustCompile(`\{name: "(\w+)"`).FindAllSubmatch(defs, -1)
	for _, m := range defined {
		if w := string(m[1]); !declared[w] {
			undeclared[w] = regexp.MustCompile(`\b` + w + `\b`)
		}
	}
	if len(defined) == 0 || len(declared) == 0 {
		t.Fatalf("benchmark/workloads.go defines %d workloads and BENCHMARK.json declares %d: the scan is broken", len(defined), len(declared))
	}
	benchFile := regexp.MustCompile(`\bBENCH_\w+\.json`)
	for _, doc := range proseDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for w, re := range undeclared {
			if re.Match(text) {
				t.Errorf("%s names workload %s, which BENCHMARK.json does not declare", doc, w)
			}
		}
		for _, f := range benchFile.FindAll(text, -1) {
			if _, err := os.Stat(string(f)); err != nil {
				t.Errorf("%s names %s, which is not checked in", doc, f)
			}
		}
	}
}

// Every -flag a code span of the prose docs, or a line of scripts/*.sh,
// passes to a capnn-<cmd> command — on the command's line or its \
// continuation, up to a pipe or redirect (an <addr> placeholder is
// neither) — is registered in cmd/<cmd>/main.go (or by
// internal/profiling.AddFlags, for the commands that call it), and every
// capnn_* metric name there, with a histogram's _bucket / _sum / _count
// suffix stripped, is an instrument name some Go source registers (a name
// ending in "_" is a prefix of one). A deleted flag or metric left in the
// docs fails here, and one a script still passes fails here rather than
// minutes into CI's cluster smoke.
func TestDocsNameRealFlagsAndMetrics(t *testing.T) {
	registered := regexp.MustCompile(`flag\.[A-Z]\w*\((?:&[\w.]+,\s*)?"([^"]+)"`)
	var flagsOf func(path string) map[string]bool
	flagsOf = func(path string) map[string]bool {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, m := range registered.FindAllSubmatch(src, -1) {
			out[string(m[1])] = true
		}
		if strings.Contains(string(src), "profiling.AddFlags()") {
			for f := range flagsOf("internal/profiling/profiling.go") {
				out[f] = true
			}
		}
		return out
	}
	cmdFlags := map[string]map[string]bool{}
	mains, err := filepath.Glob("cmd/capnn-*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no commands found (%v)", err)
	}
	for _, m := range mains {
		cmdFlags[filepath.Base(filepath.Dir(m))] = flagsOf(m)
	}

	metricNames := map[string]bool{}
	instrument := regexp.MustCompile(`\(\s*"(capnn_[a-z0-9_]+)"`)
	goSources(t, ".", func(path string, src []byte) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, m := range instrument.FindAllSubmatch(src, -1) {
			metricNames[string(m[1])] = true
		}
	})
	if len(metricNames) == 0 {
		t.Fatal("no registered metric names found: the scan is broken")
	}
	metricKnown := func(n string) bool {
		if strings.HasSuffix(n, "_") {
			for m := range metricNames {
				if strings.HasPrefix(m, n) {
					return true
				}
			}
			return false
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(n, suffix); ok && metricNames[base] {
				return true
			}
		}
		return metricNames[n]
	}

	command := regexp.MustCompile(`capnn-[a-z]+(?:-[a-z]+)*`)
	placeholder := regexp.MustCompile(`<[^<>\s]+>`) // <addr>, not a redirect
	flagTok := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	metric := regexp.MustCompile(`capnn_[a-z0-9_]+`)
	texts := map[string][]string{}
	for _, doc := range proseDocs {
		texts[doc] = codeSpans(t, doc)
	}
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no scripts found (%v)", err)
	}
	for _, sh := range scripts {
		src, err := os.ReadFile(sh)
		if err != nil {
			t.Fatal(err)
		}
		texts[sh] = []string{string(src)}
	}
	flagsChecked, metricsChecked := 0, 0
	for doc, spans := range texts {
		for _, s := range spans {
			for _, n := range metric.FindAllString(s, -1) {
				metricsChecked++
				if !metricKnown(n) {
					t.Errorf("%s names metric %s, which no Go source registers", doc, n)
				}
			}
			for _, line := range strings.Split(strings.ReplaceAll(s, "\\\n", " "), "\n") {
				cmds := command.FindAllStringIndex(line, -1)
				for i, c := range cmds {
					end := len(line)
					if i+1 < len(cmds) {
						end = cmds[i+1][0]
					}
					seg := placeholder.ReplaceAllString(line[c[1]:end], "_")
					if cut := strings.IndexAny(seg, "|<>"); cut >= 0 {
						seg = seg[:cut]
					}
					name := line[c[0]:c[1]]
					for _, tok := range strings.Fields(seg) {
						m := flagTok.FindStringSubmatch(tok)
						if m == nil {
							continue
						}
						flagsChecked++
						known, ok := cmdFlags[name]
						if !ok {
							t.Errorf("%s passes -%s to %s, which is not a command under cmd/", doc, m[1], name)
						} else if !known[m[1]] {
							t.Errorf("%s passes -%s to %s, which registers no such flag", doc, m[1], name)
						}
					}
				}
			}
		}
	}
	if flagsChecked == 0 || metricsChecked == 0 {
		t.Fatalf("checked %d flags and %d metric names in the docs: the scan is broken", flagsChecked, metricsChecked)
	}
}
