package capnn

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed are the exported internal/ identifiers that no non-test
// code names but that stay, each with its reason. A name is
// "pkg.Name" or, for a method, "pkg.Type.Name".
var reachAllowed = map[string]string{
	"rpc.NewPipeListener":             "in-process transport seam: serve and rpc tests run a tier over net.Pipe, and the deterministic cluster simulation (ROADMAP item 5) will",
	"qos.Limiter.SetClock":            "fake-clock seam for the token-bucket tests",
	"metrics.EventLog.SetNow":         "fake-clock seam for the event-log tests",
	"faults.PartitionListener":        "partition seam: the gateway failover tests cut a shard off and heal it",
	"faults.Partition.SetPartitioned": "partition seam: the gateway failover tests cut a shard off and heal it",
	"data.Generator.GenerateCounts":   "imbalanced draws the ε audit on served answers (ROADMAP item 3) needs",
	"exp.RunLstartAblation":           "EXPERIMENTS' l_start reproducer is the root BenchmarkAblationLstart, which an exp test file cannot serve",
	"exp.PrintLstartAblation":         "EXPERIMENTS' l_start reproducer is the root BenchmarkAblationLstart, which an exp test file cannot serve",
	"firing.LoadPacked":               "decoder of the §V-C packed-rate format: the root and core round-trip tests personalize from decoded rates, which the memory table's byte counts assume",
	"firing.PackedRates.Unpack":       "decoder of the §V-C packed-rate format: the root and core round-trip tests personalize from decoded rates, which the memory table's byte counts assume",
	"serve.Client.Health":             "the client half of OpHealth, which serve's and cluster's tests probe a shard with; the gateway's probes send it on their own connections",
}

// An exported function, method, type, var or const under internal/ must
// be named by some non-test Go code other than its own declaration:
// internal/ itself, cmd/, examples/, scripts/, the root facade, or the
// benchmark/ module, whose tests count too (it is frozen, and reaches
// internal/ only through exported names). A name in a comment or a
// string literal is not a use, nor is a use inside an exported
// declaration that is itself unreached, so a dead chain fails link by
// link. A method whose name some interface declares (in this repository
// or a standard package it imports) counts as used, since a call through
// that interface names no receiver. The match is by name: a shared name
// can hide a finding, but a finding is real.
func TestInternalExportsAreReached(t *testing.T) {
	type decl struct {
		key   string // pkg.Name or pkg.Type.Name
		name  string
		recv  bool
		where string
	}
	var decls []*decl
	// uses maps a name to the checked declaration each use of it sits
	// in; nil stands for a use outside any.
	uses := map[string][]*decl{}
	iface := map[string]bool{"Error": true} // the builtin error
	imports := map[string]bool{}

	fset := token.NewFileSet()
	parse := func(path string, src []byte) {
		if strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(filepath.ToSlash(path), "benchmark/") {
			return
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			imports[p] = true
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		pkg := filepath.Base(filepath.Dir(path))
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			var owner *decl
			add := func(id *ast.Ident, recv string) {
				declared[id] = true
				if !internal || !id.IsExported() || (recv != "" && !ast.IsExported(recv)) {
					return
				}
				key := pkg + "." + id.Name
				if recv != "" {
					key = pkg + "." + recv + "." + id.Name
				}
				e := &decl{key: key, name: id.Name, recv: recv != "", where: fset.Position(id.Pos()).String()}
				decls = append(decls, e)
				if owner == nil {
					owner = e
				}
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = recvName(d.Recv.List[0].Type)
				}
				add(d.Name, recv)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, "")
						}
					}
				}
				if len(d.Specs) > 1 {
					owner = nil // a group's members do not reach each other
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							iface[id.Name] = true
							declared[id] = true
						}
					}
				case *ast.StructType:
					for _, fl := range n.Fields.List {
						for _, id := range fl.Names {
							declared[id] = true
						}
					}
				case *ast.Ident:
					if !declared[n] {
						uses[n.Name] = append(uses[n.Name], owner)
					}
				}
				return true
			})
		}
	}
	goSources(t, ".", parse)
	goSources(t, "benchmark", parse)

	// Interface methods of the standard packages the code imports.
	for p := range imports {
		if strings.HasPrefix(p, "capnn") {
			continue
		}
		dir := filepath.Join(build.Default.GOROOT, "src", p)
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							iface[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	if len(decls) == 0 || len(uses) == 0 || !iface["ServeHTTP"] {
		t.Fatalf("%d declarations, %d used names, ServeHTTP known %v: the scan is broken", len(decls), len(uses), iface["ServeHTTP"])
	}

	// A declaration is dead when every use of its name sits inside dead
	// declarations; the allowlisted ones are kept alive, so what they
	// call is reached.
	dead := map[*decl]bool{}
	reached := func(d *decl) bool {
		for _, owner := range uses[d.name] {
			if owner == nil || (owner != d && !dead[owner]) {
				return true
			}
		}
		return d.recv && iface[d.name]
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, ok := reachAllowed[d.key]; !ok && !dead[d] && !reached(d) {
				dead[d], changed = true, true
			}
		}
	}
	var found []string
	for d := range dead {
		found = append(found, d.where+": "+d.key)
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is exported but no non-test code reaches it: delete it, move it into the tests that use it, or give reachAllowed a reason", f)
	}
	for key := range reachAllowed {
		stale := true
		for _, d := range decls {
			if d.key == key {
				stale = reached(d)
			}
		}
		if stale {
			t.Errorf("reachAllowed lists %s, which is reached or gone: drop the entry", key)
		}
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
