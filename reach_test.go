package capnn

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed are the exported internal/ identifiers that no non-test
// code reaches but that stay, each with its reason. A name is
// "pkg.Name" or, for a method, "pkg.Type.Name".
var reachAllowed = map[string]string{
	"rpc.NewPipeListener":             "in-process transport seam: serve and rpc tests run a tier over net.Pipe, and the deterministic cluster simulation (ROADMAP item 5) will",
	"rpc.PipeListener.Dial":           "the client half of that seam: the tests dial the pipe listener they serve on",
	"qos.Limiter.SetClock":            "fake-clock seam for the token-bucket tests",
	"metrics.EventLog.SetNow":         "fake-clock seam for the event-log tests",
	"faults.PartitionListener":        "partition seam: the gateway failover tests cut a shard off and heal it",
	"faults.Partition.SetPartitioned": "partition seam: the gateway failover tests cut a shard off and heal it",
	"data.Generator.GenerateCounts":   "imbalanced draws the ε audit on served answers (ROADMAP item 3) needs",
	"serve.Client.Health":             "the client half of OpHealth, which serve's and cluster's tests probe a shard with; the gateway's probes send it on their own connections",
}

// reachByName are the methods the standard library calls through an
// unexported or anonymous interface, which the by-type rule cannot see
// (errors' Is and As belong here once something declares them); a
// method of one of these names always counts as reached.
var reachByName = map[string]string{
	"Unwrap": "errors.Is, errors.As and fmt's %w walk interface{ Unwrap() error }",
}

// An exported function, method, type, var or const under internal/ or in
// the root facade must be reached from some non-test Go code other than
// its own declaration: internal/ itself, cmd/, examples/, scripts/, the
// root facade, or the benchmark/ module, whose tests count too (it is
// frozen, and reaches internal/ only through exported names). So the
// facade re-exports only what the examples call. Every package is type-checked,
// and a use is an identifier that resolves to the declared object, so a
// name shared with something else hides nothing; a name in a comment or
// a string literal is not a use, nor is a use inside an exported
// declaration that is itself unreached, so a dead chain fails link by
// link. A method also counts as used when its receiver type, or a
// pointer to it, implements an interface that declares it (one declared
// in this repository, in an interface literal here, or exported by a
// package the code imports, directly or not), or when its receiver type
// is the type argument of a type parameter whose constraint declares it,
// since a call through an interface or a type parameter names no
// receiver; so do the methods in reachByName.
func TestInternalExportsAreReached(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path
	parse := func(name string, src []byte) {
		slash := filepath.ToSlash(name)
		if strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(slash, "benchmark/") {
			return
		}
		if ok, err := build.Default.MatchFile(filepath.Split(name)); err != nil || !ok {
			if err != nil {
				t.Fatal(err)
			}
			return
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ip := path.Join("capnn", path.Dir(slash))
		if strings.HasSuffix(f.Name.Name, "_test") {
			ip += "_test"
		}
		files[ip] = append(files[ip], f)
	}
	goSources(t, ".", parse)
	goSources(t, "benchmark", parse)

	// capnn/... comes from source, the rest from the toolchain's export
	// data. One Info serves every package: its keys are distinct nodes.
	std := importer.ForCompiler(fset, "gc", nil)
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Instances: map[*ast.Ident]types.Instance{}}
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if ip != "capnn" && !strings.HasPrefix(ip, "capnn/") {
			return std.Import(ip)
		}
		if p, ok := checked[ip]; ok {
			return p, nil
		}
		if len(files[ip]) == 0 {
			return nil, fmt.Errorf("no Go files for %s", ip)
		}
		p, err := (&types.Config{Importer: imp}).Check(ip, fset, files[ip], info)
		checked[ip] = p
		return p, err
	}
	for ip := range files {
		if _, err := imp.Import(ip); err != nil {
			t.Fatal(err)
		}
	}

	// Every interface a call could go through, by method name: the
	// builtin error, the interface literals here, and the named
	// interfaces of every package the code imports, directly or not.
	iface := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				iface[it.Method(i).Name()] = append(iface[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for e, tv := range info.Types {
		if _, ok := e.(*ast.InterfaceType); ok {
			addIface(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				addIface(tn.Type())
			}
		}
		for _, im := range p.Imports() {
			walk(im)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	// A type argument implements the constraint of its type parameter,
	// which a generic body calls the declared methods through.
	viaParam := map[types.Object]bool{}
	for id, inst := range info.Instances {
		var tps *types.TypeParamList
		switch t := info.Uses[id].Type().(type) {
		case *types.Signature:
			tps = t.TypeParams()
		case *types.Named:
			tps = t.TypeParams()
		}
		for i := 0; i < tps.Len(); i++ {
			it := tps.At(i).Constraint().Underlying().(*types.Interface)
			for j := 0; j < it.NumMethods(); j++ {
				m, _, _ := types.LookupFieldOrMethod(inst.TypeArgs.At(i), true, nil, it.Method(j).Name())
				viaParam[origin(m)] = true
			}
		}
	}
	implemented := func(m *types.Func) bool {
		if reachByName[m.Name()] != "" || viaParam[m] {
			return true
		}
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range iface[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	type decl struct {
		key   string // pkg.Name or pkg.Type.Name
		recv  bool
		where string
	}
	decls := map[types.Object]*decl{}
	// uses maps an object to the checked declaration each use of it
	// sits in; nil stands for a use outside any.
	uses := map[types.Object][]*decl{}
	for ip, fs := range files {
		internal := (ip == "capnn" || strings.HasPrefix(ip, "capnn/internal/")) && !strings.HasSuffix(ip, "_test")
		for _, f := range fs {
			for _, d := range f.Decls {
				var owner *decl
				add := func(id *ast.Ident, recv string) {
					if !internal || !id.IsExported() || (recv != "" && !ast.IsExported(recv)) {
						return
					}
					key := path.Base(ip) + "." + id.Name
					if recv != "" {
						key = path.Base(ip) + "." + recv + "." + id.Name
					}
					e := &decl{key: key, recv: recv != "", where: fset.Position(id.Pos()).String()}
					decls[info.Defs[id]] = e
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
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(info.Uses[id]); obj != nil {
							uses[obj] = append(uses[obj], owner)
						}
					}
					return true
				})
			}
		}
	}
	if len(decls) == 0 || len(uses) == 0 || len(iface["ServeHTTP"]) == 0 {
		t.Fatalf("%d declarations, %d used objects, %d ServeHTTP interfaces: the scan is broken", len(decls), len(uses), len(iface["ServeHTTP"]))
	}

	// A declaration is dead when every use of it sits inside dead
	// declarations; the allowlisted ones are kept alive, so what they
	// call is reached.
	dead := map[*decl]bool{}
	reached := func(obj types.Object, d *decl) bool {
		for _, owner := range uses[obj] {
			if owner == nil || (owner != d && !dead[owner]) {
				return true
			}
		}
		return d.recv && implemented(obj.(*types.Func))
	}
	for changed := true; changed; {
		changed = false
		for obj, d := range decls {
			if _, ok := reachAllowed[d.key]; !ok && !dead[d] && !reached(obj, d) {
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
		for obj, d := range decls {
			if d.key == key {
				stale = reached(obj, d)
			}
		}
		if stale {
			t.Errorf("reachAllowed lists %s, which is reached or gone: drop the entry", key)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a field or method of an instantiated generic type back to
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
