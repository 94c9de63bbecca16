package prepuc

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed lists the functions, methods and exported types under
// internal/ that no non-test file refers to, each with the reason it stays:
// the named test of another package needs it, which an unexported name or a
// _test.go file cannot serve.
var testOnlyAllowed = map[string]string{
	"internal/nvm.System.SetBGFlushOneIn": "internal/core's TestInPlaceReplayFailsSweep raises eviction for the recovery phase of an already-booted machine",
	"internal/core.PREP.DumpState":        "internal/integration's TestDoubleRecoveryIdempotent compares whole recovered states across double recovery through it",
	"internal/cxpuc.CX.DumpState":         "as core.PREP.DumpState",
	"internal/onll.ONLL.DumpState":        "as core.PREP.DumpState",
	"internal/explore.StrideSweep":        "the sampling reference internal/harness's TestExploreSubsumesStrideSweep holds the explorer's crash classes against",
	"internal/seq.ListSetType":            "internal/integration's TestDifferentialListSet and TestDurableRecoveryPreservesEveryStructure run it under the constructions",
	"internal/seq.SkipListType":           "as seq.ListSetType, in TestDifferentialSkipList",
}

// TestNoTestOnlyExports type-checks every non-test file of the module and
// requires each package-level function, method and exported type declared
// under internal/ to be referred to, as that exact object, by some non-test
// file outside the object's own declaration (a type's declaration includes
// its methods). A method also counts when it implements a method of an
// interface that non-test code calls — or that fmt calls, String and Error.
// What it catches is a knob, codec or counter set that only tests reach.
func TestNoTestOnlyExports(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	used := m.usedObjects()
	found := map[string]bool{}
	for _, d := range m.decls {
		if used[d.obj] {
			continue
		}
		found[d.key] = true
		if _, ok := testOnlyAllowed[d.key]; !ok {
			t.Errorf("%s: no non-test file refers to it: delete it, unexport it, move it into a _test.go file, or allow it with a reason", d.key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(testOnlyAllowed)) {
		if !found[key] {
			t.Errorf("%s is allowed as test-only but is not: drop it from testOnlyAllowed", key)
		}
	}
}

// unreadAllowed lists the struct fields under internal/ that no non-test file
// reads, each with the test that needs it.
var unreadAllowed = map[string]string{
	"internal/core.RecoveryReport.SourceGeneration":   "internal/core's TestInstanceGenerationsIndependent and TestRecoveryRestartsCounted check which generation recovery read",
	"internal/core.RecoveryReport.Generation":         "internal/core's TestRecoveryRestartsCounted derives the abandoned generations from it",
	"internal/core.RecoveryReport.Holes":              "internal/core's TestDurableCrashLosesNoCompletedOp requires no hole below completedTail",
	"internal/core.RecoveryReport.DescriptorsCarried": "internal/core's TestDetectDoubleRecoveryIdempotent requires every resolved verdict carried forward",
	"internal/sim.Scheduler.handoffs":                 "internal/sim's switch bounds and internal/harness's TestServePhaseMatchesChooserTwin pin dispatch counts through it",
	"internal/sim.Scheduler.switches":                 "as sim.Scheduler.handoffs",
	"internal/sim.Scheduler.parks":                    "internal/core's TestAwaitMatchesChooserTwin and internal/drivers' TestWaitsMatchChooserTwin require waiters to have parked",
	"internal/sim.Thread.ins":                         "internal/harness's TestServePhaseMatchesChooserTwin bounds how often an injector is switched in",
	"internal/svc.Future.Invid":                       "internal/svc's TestDetectStampsAndCursors and TestPostedCompletionsSurviveSlotReuse check the invocation id a completion carries",
	"internal/svc.Future.Mark":                        "internal/svc's TestDurableBarrierDurableMode, TestDurableBarrierForcesCycleInBufferedMode and TestPerOpFallback hand it to AwaitDurable",
}

// TestNoUnreadFields requires every field of a struct type declared under
// internal/ to be read by some non-test file: selected anywhere but as the
// target of an assignment or an increment (a composite literal's key only
// writes it). A json-tagged field counts as read, as encoding/json reads it,
// and so does an embedded field whose promoted fields or methods are used. A
// field of a generic type is its origin's. What it catches is state that is
// kept up to date and never consulted.
//
// A field read only by its own package's tests has no home in a _test.go
// file, so it is allowed with the test that reads it.
func TestNoUnreadFields(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	read, used := m.readFields(), m.usedObjects()
	found := map[string]bool{}
	for _, ip := range slices.Sorted(maps.Keys(m.pkgs)) {
		dir, _ := strings.CutPrefix(ip, "prepuc/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		scope := m.pkgs[ip].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			// An embedded field is read where a method promoted through it is
			// used, through an interface included.
			promoted := map[int]bool{}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for j := 0; j < mset.Len(); j++ {
				if sel := mset.At(j); len(sel.Index()) > 1 && used[origin(sel.Obj())] {
					promoted[sel.Index()[0]] = true
				}
			}
			for i := 0; i < st.NumFields(); i++ {
				if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); read[st.Field(i)] || promoted[i] || ok && tag != "-" {
					continue
				}
				key := dir + "." + name + "." + st.Field(i).Name()
				found[key] = true
				if _, ok := unreadAllowed[key]; !ok {
					t.Errorf("%s: no non-test file reads it: delete it, or allow it with the test that needs it", key)
				}
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(unreadAllowed)) {
		if !found[key] {
			t.Errorf("%s is allowed as unread but is read: drop it from unreadAllowed", key)
		}
	}
}

// readFields is every struct field (as its origin) that a selector in a
// non-test file reads, outside an assignment's or an increment's target, plus
// every embedded field a selector's path passes through.
func (m *module) readFields() map[*types.Var]bool {
	written := map[ast.Expr]bool{}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					written[lhs] = true
				}
			case *ast.IncDecStmt:
				written[n.X] = true
			}
			return true
		})
	}
	read := map[*types.Var]bool{}
	for se, sel := range m.info.Selections {
		path, typ := sel.Index(), sel.Recv()
		last := len(path) - 1
		for i, x := range path {
			if i == last && sel.Kind() != types.FieldVal {
				break // a method, not a field
			}
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			f := typ.Underlying().(*types.Struct).Field(x)
			if i < last || !written[se] {
				read[f.Origin()] = true
			}
			typ = f.Type()
		}
	}
	return read
}

// module is the repository's Go code: the non-test files type-checked, the
// _test.go files parsed only.
type module struct {
	fset  *token.FileSet
	imp   types.Importer // module packages as checked, the rest from export data
	info  *types.Info
	pkgs  map[string]*types.Package // by import path
	files []*ast.File
	tests []*ast.File
	src   map[string][]byte // every Go file's source, by path
	decls []surfaceDecl
}

// surfaceDecl is one object the test holds to the rule: key names it the way
// testOnlyAllowed does ("internal/pkg.Name" or "internal/pkg.Recv.Name").
type surfaceDecl struct {
	key string
	obj types.Object
}

const modPath = "prepuc"

// theModule is the module every test of this package reads; loading it
// once keeps the package's run short.
var theModule = sync.OnceValues(loadModule)

// loadModule parses every Go file below the module root, grouped by
// directory, and type-checks the non-test packages in import order;
// standard-library imports come from the toolchain's export data.
func loadModule() (*module, error) {
	m := &module{
		fset: token.NewFileSet(),
		info: newInfo(),
		pkgs: map[string]*types.Package{},
		src:  map[string][]byte{},
	}
	dirs := map[string][]*ast.File{} // import path → files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		m.src[filepath.ToSlash(p)] = src
		f, err := parser.ParseFile(m.fset, filepath.ToSlash(p), src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(p, "_test.go") {
			m.tests = append(m.tests, f)
			return nil
		}
		ip := path.Join(modPath, filepath.ToSlash(filepath.Dir(p)))
		dirs[ip] = append(dirs[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.Default()
	var check func(ip string) (*types.Package, error)
	m.imp = importerFunc(func(ip string) (*types.Package, error) {
		if _, ok := dirs[ip]; ok {
			return check(ip)
		}
		return std.Import(ip)
	})
	check = func(ip string) (*types.Package, error) {
		if pkg, ok := m.pkgs[ip]; ok {
			return pkg, nil
		}
		files := dirs[ip]
		pkg, err := (&types.Config{Importer: m.imp}).Check(ip, m.fset, files, m.info)
		if err != nil {
			return nil, err
		}
		m.pkgs[ip] = pkg
		m.files = append(m.files, files...)
		if dir, ok := strings.CutPrefix(ip, modPath+"/"); ok && strings.HasPrefix(dir, "internal/") {
			m.decls = append(m.decls, declsOf(dir, files, m.info)...)
		}
		return pkg, nil
	}
	for _, ip := range slices.Sorted(maps.Keys(dirs)) {
		if _, err := check(ip); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declsOf lists the objects of one package's files the rule covers: every
// package-level function and method bar init, every method an interface
// type declares, and every exported type.
func declsOf(dir string, files []*ast.File, info *types.Info) []surfaceDecl {
	var out []surfaceDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.Name == "init" {
					continue
				}
				key := dir + "." + decl.Name.Name
				if decl.Recv != nil {
					key = dir + "." + recvName(decl.Recv.List[0].Type) + "." + decl.Name.Name
				}
				out = append(out, surfaceDecl{key, info.Defs[decl.Name]})
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if ts.Name.IsExported() {
						out = append(out, surfaceDecl{dir + "." + ts.Name.Name, info.Defs[ts.Name]})
					}
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						for _, field := range it.Methods.List {
							for _, name := range field.Names {
								out = append(out, surfaceDecl{dir + "." + ts.Name.Name + "." + name.Name, info.Defs[name]})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// usedObjects is every object some non-test file refers to outside the
// object's own declaration and outside a compile-time assertion (var _ I =
// …), plus every method that implements a called interface method.
func (m *module) usedObjects() map[types.Object]bool {
	used := map[types.Object]bool{}
	called := map[*types.Interface][]*types.Func{} // interface → its called methods
	for _, f := range m.files {
		for _, decl := range f.Decls {
			own := ownObjects(decl, m.info)
			ast.Inspect(decl, func(n ast.Node) bool {
				if vs, ok := n.(*ast.ValueSpec); ok {
					return slices.ContainsFunc(vs.Names, func(id *ast.Ident) bool { return id.Name != "_" })
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := origin(m.info.Uses[id])
				if obj == nil || slices.Contains(own, obj) || used[obj] {
					return true
				}
				used[obj] = true
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Signature().Recv(); recv != nil {
						if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
							if !iface.IsMethodSet() {
								// A type parameter's constraint: what it calls
								// is a method of every type argument.
								iface = methodsOf(iface)
							}
							called[iface] = append(called[iface], fn)
						}
					}
				}
				return true
			})
		}
	}
	// fmt calls Error and String on every value it formats.
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	called[errorIface] = append(called[errorIface], errorIface.Method(0))
	stringer := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)),
	}, nil).Complete()
	called[stringer] = []*types.Func{stringer.Method(0)}
	// flag calls Set on every flag.Value it parses a command line into.
	flagValue := types.NewInterfaceType([]*types.Func{
		stringer.Method(0),
		types.NewFunc(token.NoPos, nil, "Set", types.NewSignatureType(nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])),
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)),
	}, nil).Complete()
	called[flagValue] = []*types.Func{flagValue.Method(0)}

	for _, pkg := range m.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for iface, methods := range called {
				if !types.Implements(ptr, iface) {
					continue
				}
				for _, im := range methods {
					if sel := mset.Lookup(im.Pkg(), im.Name()); sel != nil {
						used[origin(sel.Obj())] = true
					}
				}
			}
		}
	}
	return used
}

// methodsOf is the interface of iface's methods alone, its type terms
// dropped.
func methodsOf(iface *types.Interface) *types.Interface {
	ms := make([]*types.Func, iface.NumMethods())
	for i := range ms {
		ms[i] = iface.Method(i)
	}
	return types.NewInterfaceType(ms, nil).Complete()
}

// ownObjects are the objects a top-level declaration declares: its function
// or method, and for a method or type spec the named type itself — a
// reference from inside these does not make them used.
func ownObjects(decl ast.Decl, info *types.Info) []types.Object {
	var own []types.Object
	switch decl := decl.(type) {
	case *ast.FuncDecl:
		own = append(own, info.Defs[decl.Name])
		if decl.Recv != nil {
			if fn, ok := info.Defs[decl.Name].(*types.Func); ok {
				if named := namedOf(fn.Signature().Recv().Type()); named != nil {
					own = append(own, named.Obj())
				}
			}
		}
	case *ast.GenDecl:
		for _, spec := range decl.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				own = append(own, info.Defs[ts.Name])
			}
		}
	}
	return own
}

// origin maps an instantiated generic function, method or type back to the
// object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.TypeName:
		if named, ok := o.Type().(*types.Named); ok && !o.IsAlias() {
			return named.Origin().Obj()
		}
	}
	return obj
}

// namedOf is the named type of a receiver: T for T and *T.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// recvName is the receiver's type name: T for T, *T, T[P] and *T[P].
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

// shapeRules hold the protocol's code to its shape: each one names a thing
// the repository does in exactly one way, and reports a second way growing
// back. Every rule but the interpreter count and the layout rule matches on
// the syntax tree or on types, so a comment never trips one, and a string
// trips only the two whose subject is a string literal. Each fixture is a
// violation laid over the tree that the rule must report.
var shapeRules = []shapeRule{
	{
		// Every tool sizes constructions through uc.Sizing and the packages'
		// ConfigFor mappings; a Config literal outside the owning package is
		// a private driver table growing back.
		name: "One construction Config literal per package",
		checks: []shapeCheck{{shipped, func(t *tree, files []goFile) (out []string) {
			t.inspect(files, func(f goFile, n ast.Node) {
				if lit, ok := n.(*ast.CompositeLit); ok {
					if obj := typeName(f.info.TypeOf(lit)); obj != nil && obj.Name() == "Config" &&
						constructions[obj.Pkg().Path()] && obj.Pkg().Path() != f.pkg() {
						out = append(out, t.at(lit)+": "+obj.Pkg().Name()+".Config literal outside its package (use its ConfigFor)")
					}
				}
			})
			return out
		}}},
		fixtures: []fixture{
			cmdFile(`import "prepuc/internal/core"; var cfg = core.Config{}`),
			cmdFile(`import g "prepuc/internal/gluc"; var cfgs = []g.Config{{}}`),
		},
	},
	{
		// Every harness boots a construction through its package's
		// NewDriver(ConfigFor(sz)), and every sequential object is one
		// uc.ObjectType (seq.XType). A direct constructor call outside the
		// owning package is a private builder table growing back; a Factory
		// or Attacher function in internal/seq is the second object
		// descriptor growing back.
		name: "One way to build a construction",
		checks: []shapeCheck{
			{shipped, func(t *tree, files []goFile) (out []string) {
				t.inspect(files, func(f goFile, n ast.Node) {
					if fn := callee(f, n); fn != nil && fn.Name() == "New" && fn.Signature().Recv() == nil &&
						constructions[fn.Pkg().Path()] && fn.Pkg().Path() != f.pkg() {
						out = append(out, t.at(n)+": "+fn.Pkg().Name()+".New outside its package (use its NewDriver(ConfigFor(sz)))")
					}
				})
				return out
			}},
			{scope{under: []string{"internal/seq/"}, code: true, tests: true}, func(t *tree, files []goFile) (out []string) {
				t.inspect(files, func(f goFile, n ast.Node) {
					if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv == nil &&
						(strings.HasSuffix(fd.Name.Name, "Factory") || strings.HasSuffix(fd.Name.Name, "Attacher")) {
						out = append(out, t.at(fd)+": "+fd.Name.Name+" in internal/seq (describe the object with its XType)")
					}
				})
				return out
			}},
		},
		fixtures: []fixture{
			cmdFile(`import ("prepuc/internal/nvm"; "prepuc/internal/sim"; softuc "prepuc/internal/soft")
				func build(t *sim.Thread, sys *nvm.System, cfg softuc.Config) *softuc.Soft { return softuc.New(t, sys, cfg) }`),
			{"internal/seq/shapefixture.go": add("package seq\n\nfunc HashMapFactory() {}\n")},
		},
	},
	{
		// A sequential object reaches a construction as one uc.ObjectType
		// (uc.Sizing.Object), and core.ConfigFor is the one place that
		// unpacks it into core.Config's Factory and Attacher. Setting either
		// anywhere else is a second object description growing back: a
		// Factory and an Attacher that need not describe the same object.
		name: "One object description",
		checks: []shapeCheck{{shipped, func(t *tree, files []goFile) (out []string) {
			sets := func(f goFile, field *ast.Ident) {
				v, ok := f.info.ObjectOf(field).(*types.Var)
				if ok && v.IsField() && v.Pkg().Path() == "prepuc/internal/core" &&
					(v.Name() == "Factory" || v.Name() == "Attacher") {
					out = append(out, t.at(field)+": core.Config."+v.Name()+" set outside core.ConfigFor (describe the object with uc.Sizing.Object)")
				}
			}
			for _, f := range files {
				for _, decl := range f.ast.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && f.path == "internal/core/driver.go" && fd.Name.Name == "ConfigFor" {
						continue
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.KeyValueExpr:
							if key, ok := n.Key.(*ast.Ident); ok {
								sets(f, key)
							}
						case *ast.AssignStmt:
							for _, lhs := range n.Lhs {
								if sel, ok := lhs.(*ast.SelectorExpr); ok {
									sets(f, sel.Sel)
								}
							}
						}
						return true
					})
				}
			}
			return out
		}}},
		fixtures: []fixture{
			{"examples/shapefixture/main.go": add("package main\n\nimport (\"prepuc/internal/core\"; \"prepuc/internal/seq\"; \"prepuc/internal/uc\")\n\n" +
				"func main() { cfg := core.ConfigFor(core.Buffered, uc.Sizing{}); cfg.Attacher = seq.PQueueType().Attach; _ = cfg }\n")},
			cmdFile(`import ("prepuc/internal/core"; "prepuc/internal/seq")
				func config() core.Config { var cfg core.Config; cfg.Factory, cfg.Attacher = seq.PQueueType().New, seq.PQueueType().Attach; return cfg }`),
			{"internal/harness/shapefixture.go": add("package harness\n\nimport (\"prepuc/internal/core\"; \"prepuc/internal/seq\")\n\n" +
				"func config(cfg core.Config) core.Config { cfg.Factory = seq.PQueueType().New; return cfg }\n")},
		},
	},
	{
		// Every cmd/ is a flag-parsing shell over internal/harness and
		// internal/explore; one that creates a scheduler or spawns simulated
		// threads is harness logic growing back into a CLI.
		name: "No simulated threads spawned from cmd/",
		checks: []shapeCheck{{scope{under: []string{"cmd/"}, code: true}, func(t *tree, files []goFile) []string {
			return t.callsTo(files, "cmd/ spawns simulated threads (move the experiment into internal/harness)",
				"internal/sim.New", "internal/sim.Scheduler.Spawn")
		}}},
		fixtures: []fixture{
			cmdFile(`import "prepuc/internal/sim"; func run() { sim.New(0).Run() }`),
			cmdFile(`import "prepuc/internal/sim"; func spawn(s *sim.Scheduler) { s.Spawn("w", 0, 0, func(*sim.Thread) {}) }`),
		},
	},
	{
		// Every phase — boot, workload, recovery attempt, probe, serve's
		// service generations, the explorer's runs, the examples' lifecycles
		// — is one drivers.Phase, the one place a scheduler is made. Phase
		// holds the failure contract: a bug panic or a deadlock is the
		// phase's error and is never taken for a crash. A scheduler made
		// anywhere else is a phase runner growing back without it; a machine
		// that is materialized or cloned but never run takes no scheduler
		// (nil).
		name: "One way to run a phase",
		checks: []shapeCheck{{scope{under: []string{"internal/", "cmd/", "examples/"}, except: []string{"internal/drivers/"}, code: true}, func(t *tree, files []goFile) []string {
			return t.callsTo(files, "scheduler made outside internal/drivers (run the phase through drivers.Phase)", "internal/sim.New")
		}}},
		fixtures: []fixture{
			cmdFile(`import "prepuc/internal/sim"; var sch = sim.New(0)`),
			{"internal/explore/shapefixture.go": add("package explore\n\nimport (\"prepuc/internal/nvm\"; \"prepuc/internal/sim\")\n\nfunc clone(s *nvm.System) *nvm.System { return s.Clone(sim.New(0)) }\n")},
			{"internal/harness/shapefixture.go": add("package harness\n\nimport \"prepuc/internal/sim\"\n\nfunc run() { sch := sim.New(0); sch.Run() }\n")},
			{"examples/shapefixture/main.go": add("package main\n\nimport \"prepuc/internal/sim\"\n\nfunc main() { sim.New(0).Run() }\n")},
		},
	},
	{
		// A repro line is runflag.Line over the run config's own Flags
		// declaration, so it parses back to the run it names. A string that
		// spells a flag assignment (-name=) anywhere else, bar an error
		// message naming a flag's value, is a hand-built command line
		// growing back.
		name: "Repro lines are rendered in one place",
		checks: []shapeCheck{{scope{under: []string{""}, except: []string{"examples/", "benchmark/", "internal/runflag/"}, code: true},
			func(t *tree, files []goFile) (out []string) {
				errFormats := map[ast.Node]bool{}
				t.inspect(files, func(f goFile, n ast.Node) {
					if fn := callee(f, n); fn != nil && (funcName(fn) == "fmt.Errorf" || funcName(fn) == "errors.New") {
						errFormats[n.(*ast.CallExpr).Args[0]] = true
					}
					if s, ok := stringLit(n); ok && flagAssign.MatchString(s) && !errFormats[n] {
						out = append(out, t.at(n)+": a hand-built command line (render it with runflag.Line)")
					}
				})
				return out
			}}},
		fixtures: []fixture{
			{"internal/harness/shapefixture.go": add("package harness\n\nimport \"fmt\"\n\nfunc repro(at uint64) string { return fmt.Sprintf(\"-crash-at=%d\", at) }\n")},
			cmdFile(`var args = []string{"prepexplore", "-repro-schedule=" + "1,0"}`),
		},
	},
	{
		// Exit status 2 means a command line no run can honour, and one rule
		// decides it: the config that owns the run refuses with a
		// runflag.UsageError, and runflag.Main turns that into 2 and every
		// other error into 1. An os.Exit anywhere else, or a second
		// usage-error type, is a second exit rule growing back.
		name: "Exit status 2 is decided in one place",
		checks: []shapeCheck{
			{scope{under: []string{""}, except: []string{"examples/", "benchmark/", "internal/runflag/"}, code: true},
				func(t *tree, files []goFile) (out []string) {
					t.inspect(files, func(f goFile, n ast.Node) {
						if fn := callee(f, n); fn != nil && funcName(fn) == "os.Exit" {
							out = append(out, t.at(n)+": an exit outside runflag.Main (return the error; a runflag.UsageError exits 2)")
						}
					})
					return out
				}},
			{scope{under: []string{""}, except: []string{"benchmark/", "internal/runflag/"}, code: true, tests: true},
				func(t *tree, files []goFile) (out []string) {
					t.inspect(files, func(f goFile, n ast.Node) {
						if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "UsageError" {
							out = append(out, t.at(n)+": a UsageError type outside internal/runflag (use runflag.Usage)")
						}
					})
					return out
				}},
		},
		fixtures: []fixture{
			cmdFile(`import "os"; func usage() { os.Exit(2) }`),
			cmdFile(`import "os"; func fatal(code int) { os.Exit(code) }`),
			{"internal/harness/shapefixture.go": add("package harness\n\nimport \"os\"\n\nfunc fail() { os.Exit(1) }\n")},
			{"internal/explore/shapefixture.go": add("package explore\n\ntype UsageError interface{ error }\n")},
			{"cmd/prepserve/shapefixture_test.go": add("package main\n\ntype UsageError error\n")},
		},
	},
	{
		// The publish / fence / full-mark / completedTail protocol is written
		// once (internal/core/session.go, DESIGN.md §3); a second call site
		// of one of its primitives is a second copy of the ordering growing
		// back.
		name: "One combiner session in internal/core",
		checks: []shapeCheck{{scope{under: []string{"internal/core/"}, code: true}, func(t *tree, files []goFile) (out []string) {
			for _, name := range []string{"internal/oplog.Log.SetFull", "internal/oplog.Log.CASCompletedTail",
				"internal/oplog.Log.PersistCompletedTail", "internal/core.descTable.write"} {
				if sites := t.callsTo(files, "call site of "+name, name); len(sites) > 1 {
					out = append(out, sites...)
				}
			}
			return out
		}}},
		fixtures: []fixture{
			{"internal/core/shapefixture.go": add(coreFixture + "p.log.SetFull(t, 0) }\n")},
			{"internal/core/shapefixture.go": add(coreFixture + "p.log.CASCompletedTail(t, 0, 1) }\n")},
			{"internal/core/shapefixture.go": add(coreFixture + "p.log.PersistCompletedTail(t, p.sys.NewFlusher()) }\n")},
			{"internal/core/shapefixture.go": add(coreFixture + "p.desc.write(t, 0, 0, 0, 0) }\n")},
		},
	},
	{
		// Host time is measured by benchmark/ (BENCHMARK.json) and gated by
		// CI's parent-against-head compare. A testing.B function anywhere
		// else is the second stack growing back: a number nothing records
		// and no gate holds.
		name: "One host-time measurement stack",
		checks: []shapeCheck{{scope{under: []string{""}, except: []string{"benchmark/"}, tests: true}, func(t *tree, files []goFile) (out []string) {
			t.inspect(files, func(f goFile, n ast.Node) {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Benchmark") {
					out = append(out, t.at(fd)+": testing.B benchmark outside benchmark/ (add a workload or micro-driver there instead)")
				}
			})
			return out
		}}},
		fixtures: []fixture{
			{"internal/seq/shapefixture_test.go": add("package seq\n\nimport \"testing\"\n\nfunc BenchmarkHashMap(b *testing.B) {}\n")},
		},
	},
	{
		// What a document must contain is asserted once, in Go, next to the
		// structs that produce it (DESIGN.md §16). The one interpreter
		// invocation in ci.yml reads the frozen benchmark's own output line;
		// a second one is the second checker growing back.
		name: "One schema checker",
		checks: []shapeCheck{{scope{}, func(t *tree, _ []goFile) []string {
			n := 0
			for _, line := range strings.Split(t.ci, "\n") {
				if strings.Contains(line, "python3") {
					n++
				}
			}
			if n != 1 {
				return []string{fmt.Sprintf("%s: %d lines invoke an interpreter, want 1 (assert it in a Go schema test)", ciPath, n)}
			}
			return nil
		}}},
		fixtures: []fixture{
			{ciPath: func(old string) string { return old + "      - run: python3 -c 'import json'\n" }},
		},
	},
	{
		// Region names, the commit record, the committed generation and the
		// free one are uc.Lineage's (DESIGN.md §15); a construction that
		// formats a g<n> name or probes the machine for one is a hand-kept
		// region list growing back (log%d and ring%d are not generations).
		name: "One generation lineage",
		checks: []shapeCheck{{scope{under: []string{"internal/", "cmd/"}, except: []string{"internal/uc/", "internal/nvm/"}, code: true},
			func(t *tree, files []goFile) []string {
				const why = "generation naming or probing outside internal/uc (use uc.Lineage)"
				out := t.callsTo(files, why, "internal/nvm.System.HasMemory")
				t.inspect(files, func(f goFile, n ast.Node) {
					if s, ok := stringLit(n); ok && (strings.HasPrefix(s, "g%d.") || strings.Contains(s, ".g%d.")) {
						out = append(out, t.at(n)+": "+why)
					}
				})
				return out
			}}},
		fixtures: []fixture{
			cmdFile(`import "prepuc/internal/nvm"; func probe(sys *nvm.System) bool { return sys.HasMemory("rheap0") }`),
			cmdFile(`const region = "rheap.g%d.0"`),
		},
	},
	{
		// Dispatch is by minimum (clock, id); every seed a run has feeds the
		// substrate RNG, the fault policy or a workload generator (DESIGN.md
		// §15). A math/rand import in internal/sim is a per-thread generator
		// nothing observes growing back.
		name: "The scheduler draws no random number",
		checks: []shapeCheck{{scope{under: []string{"internal/sim/"}, code: true}, func(t *tree, files []goFile) (out []string) {
			t.inspect(files, func(f goFile, n ast.Node) {
				if imp, ok := n.(*ast.ImportSpec); ok && imp.Path.Value == `"math/rand"` {
					out = append(out, t.at(imp)+": internal/sim imports math/rand (seed the substrate, the fault policy or the generator instead)")
				}
			})
			return out
		}}},
		fixtures: []fixture{
			{"internal/sim/shapefixture.go": add("package sim\n\nimport \"math/rand\"\n\nvar _ = rand.Int\n")},
		},
	},
	{
		// A loop whose rounds only load waits through locks.Wait (DESIGN.md
		// §7); a loop whose rounds store or CAS retries with
		// t.Step(b.Next(cap)). A Spin call, a fixed spin cost or a
		// construction-local waiter is a second wait growing back.
		name: "One way to wait",
		checks: []shapeCheck{{scope{under: []string{""}, code: true, tests: true}, func(t *tree, files []goFile) (out []string) {
			const why = "spin loop outside locks.Wait (wait through locks.Wait, or retry with t.Step(b.Next(cap)))"
			t.inspect(files, func(f goFile, n ast.Node) {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Spin" {
						out = append(out, t.at(n)+": "+why)
					}
				case *ast.Ident:
					if strings.Contains(n.Name, "spinCost") {
						out = append(out, t.at(n)+": "+why)
					}
				}
			})
			if slices.ContainsFunc(t.files, func(f goFile) bool { return f.path == "internal/core/wait.go" }) {
				out = append(out, "internal/core/wait.go is back (core waits through locks.Wait)")
			}
			return out
		}}},
		fixtures: []fixture{
			{"internal/locks/shapefixture_test.go": add("package locks\n\nfunc spin(b interface{ Spin() }) { b.Spin() }\n")},
			{"internal/locks/shapefixture_test.go": add("package locks\n\nconst spinCost = 8\n")},
			{"internal/core/wait.go": add("package core\n")},
		},
	},
	{
		// A held memory's holders charge accesses without a dispatch
		// decision (DESIGN.md §7, "Private memories"). Two arguments make
		// that exact, and each has one site: the persistence thread alone
		// touches the persistent replica heaps while its loop runs
		// (persist.go), and a replica's reader–writer lock keeps every other
		// thread off its heap under the write lock and every store off it
		// under a read lock (rwlock.go, whose four helpers are the lock's
		// only callers and each take or release the heap's hold). A hold
		// elsewhere is a new exactness argument, not a one-line change.
		name: "Private memories are declared in one place",
		checks: []shapeCheck{{scope{under: []string{""}, code: true}, func(t *tree, files []goFile) (out []string) {
			const persist, rwlock = "internal/core/persist.go", "internal/core/rwlock.go"
			held := map[string]bool{} // "file func Hold(write)" and "file func Release" for every call
			decl := ""                // the top-level function being walked
			t.inspect(files, func(f goFile, n ast.Node) {
				switch n := n.(type) {
				case *ast.FuncDecl:
					decl = n.Name.Name
				case *ast.GenDecl:
					decl = ""
				}
				fn := callee(f, n)
				if fn == nil {
					return
				}
				switch name := funcName(fn); name {
				case "internal/nvm.Memory.Hold", "internal/nvm.Memory.Release":
					// Mirror holds its source and destinations, and a mirror's
					// release is its end ("Replicas are prefilled in one place").
					if f.path != persist && f.path != rwlock &&
						!(name == "internal/nvm.Memory.Hold" && f.path+" "+decl == mirrorSite) &&
						!(name == "internal/nvm.Memory.Release" && prefillSites[f.path+" "+decl]) {
						out = append(out, t.at(n)+": "+fn.Name()+" called outside "+persist+" and "+rwlock)
					}
					call := f.path + " " + decl + " " + fn.Name()
					if args := n.(*ast.CallExpr).Args; len(args) == 2 {
						call += "(" + types.ExprString(args[1]) + ")"
					}
					held[call] = true
				case "internal/locks.DistRWLock.WriteLock", "internal/locks.DistRWLock.WriteUnlock",
					"internal/locks.DistRWLock.ReadLock", "internal/locks.DistRWLock.ReadUnlock":
					if f.pkg() == "prepuc/internal/core" && f.path != rwlock {
						out = append(out, t.at(n)+": a replica lock taken outside "+rwlock+"'s helpers")
					}
				}
			})
			for _, want := range []string{persist + " PersistenceLoop Hold(true)", persist + " PersistenceLoop Release",
				rwlock + " writeLock Hold(true)", rwlock + " writeUnlock Release",
				rwlock + " readLock Hold(false)", rwlock + " readUnlock Release"} {
				if !held[want] {
					file, call, _ := strings.Cut(want, " ")
					out = append(out, file+": no "+call+" (a lock helper or the persistence loop lost its hold)")
				}
			}
			return out
		}}},
		fixtures: []fixture{
			cmdFile(`import ("prepuc/internal/nvm"; "prepuc/internal/sim"); func own(m *nvm.Memory, t *sim.Thread) { m.Hold(t, true) }`),
			cmdFile(`import ("prepuc/internal/nvm"; "prepuc/internal/sim"); func drop(m *nvm.Memory, t *sim.Thread) { m.Release(t) }`),
			{"internal/nvm/shapefixture.go": add("package nvm\n\nimport \"prepuc/internal/sim\"\n\nfunc own(m *Memory, t *sim.Thread) { m.Hold(t, true) }\n")},
			{"internal/core/shapefixture.go": add(coreFixture + "p.reps[0].rw.WriteLock(t) }\n")},
			{"internal/core/persist.go": func(old string) string {
				return strings.Replace(old, "pr.heap.Hold(t, true)", "_ = pr.heap", 1)
			}},
			{"internal/core/persist.go": func(old string) string {
				return strings.Replace(old, "pr.heap.Release(t)", "_ = pr.heap", 1)
			}},
			{"internal/core/rwlock.go": func(old string) string {
				return strings.Replace(old, "r.heap.Hold(t, true)", "_ = r.heap", 1)
			}},
			{"internal/core/rwlock.go": func(old string) string {
				return strings.Replace(old, "r.heap.Release(t)\n\tr.rw.WriteUnlock(t)", "_ = r.heap\n\tr.rw.WriteUnlock(t)", 1)
			}},
			{"internal/core/rwlock.go": func(old string) string {
				return strings.Replace(old, "r.heap.Hold(t, false)", "_ = r.heap", 1)
			}},
			{"internal/core/rwlock.go": func(old string) string {
				return strings.Replace(old, "r.heap.Release(t)\n\tr.rw.ReadUnlock(t, slot)", "_ = r.heap\n\tr.rw.ReadUnlock(t, slot)", 1)
			}},
		},
	},
	{
		// A construction's Prefill replays its ops once, into one replica,
		// while nvm.Memory.Mirror applies every access to the other replica
		// heaps (DESIGN.md §7, "Prefill by mirror"). The mirror is exact for
		// destinations that start as the source does, under one thread,
		// which a freshly built construction's Prefill guarantees; a mirror
		// elsewhere is a new exactness argument, and a Prefill that replays
		// into its replicas in turn again is the cost the mirror took away.
		name: "Replicas are prefilled in one place",
		checks: []shapeCheck{{scope{under: []string{""}, code: true}, func(t *tree, files []goFile) (out []string) {
			const mirror, execute = "internal/nvm.Memory.Mirror", "internal/uc.DataStructure.Execute"
			mirrors := map[string]bool{}
			site := "" // the file and top-level function being walked
			t.inspect(files, func(f goFile, n ast.Node) {
				switch n := n.(type) {
				case *ast.FuncDecl:
					site = f.path + " " + n.Name.Name
					if !prefillSites[site] {
						return
					}
					// One replay: one Execute, inside no loop nested in another.
					replays, nested := calls(f, n.Body, execute), false
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if outer, ok := m.(*ast.RangeStmt); ok {
							ast.Inspect(outer.Body, func(in ast.Node) bool {
								if inner, ok := in.(*ast.RangeStmt); ok && calls(f, inner.Body, execute) != 0 {
									nested = true
								}
								return true
							})
						}
						return true
					})
					if replays != 1 || nested {
						out = append(out, t.at(n)+": "+site+" replays into its replicas in turn (replay once under nvm.Memory.Mirror)")
					}
				case *ast.GenDecl:
					site = ""
				}
				if fn := callee(f, n); fn != nil && funcName(fn) == mirror {
					if !prefillSites[site] {
						out = append(out, t.at(n)+": Mirror called outside a construction's Prefill")
					}
					mirrors[site] = true
				}
			})
			for _, s := range slices.Sorted(maps.Keys(prefillSites)) {
				if !mirrors[s] {
					out = append(out, s+": no Mirror (the Prefill lost its mirror)")
				}
			}
			return out
		}}},
		fixtures: []fixture{
			cmdFile(`import ("prepuc/internal/nvm"; "prepuc/internal/sim"); func copyAll(m, d *nvm.Memory, t *sim.Thread) { m.Mirror(t, d) }`),
			{"internal/core/engine.go": func(old string) string {
				return strings.Replace(old, "\tsrc.heap.Mirror(t, dsts...)\n", "\tsrc.heap.Mirror(t, dsts...)\n\tfor _, r := range p.reps[1:] {\n\t\tfor _, op := range ops {\n\t\t\tr.ds.Execute(t, op.Code, op.A0, op.A1)\n\t\t}\n\t}\n", 1)
			}},
			{"internal/cxpuc/execute.go": func(old string) string {
				return strings.Replace(old, "\t\tr0.ds.Execute(t, op.Code, op.A0, op.A1)\n", "\t\tfor _, r := range cx.reps {\n\t\t\tr.ds.Execute(t, op.Code, op.A0, op.A1)\n\t\t}\n", 1)
			}},
			{"internal/cxpuc/execute.go": func(old string) string {
				return strings.Replace(old, "r0.heap.Mirror(t, dsts...)", "r0.heap.Hold(t, true)", 1)
			}},
		},
	},
	{
		// A crash at a virtual instant is sim.Scheduler.CrashAtInstant: a
		// thread that steps to the instant and calls CrashNow would cut
		// through the accesses a private memory's owner charged ahead
		// (CrashNow panics).
		name: "Crashes at an instant are armed on the scheduler",
		checks: []shapeCheck{{scope{under: []string{""}, code: true}, func(t *tree, files []goFile) (out []string) {
			t.inspect(files, func(f goFile, n ast.Node) {
				if s, ok := stringLit(n); ok && s == "crasher" {
					out = append(out, t.at(n)+": a crasher thread outside tests (arm sim.Scheduler.CrashAtInstant)")
				}
			})
			return out
		}}},
		fixtures: []fixture{
			cmdFile(`const name = "crasher"`),
		},
	},
	{
		// Go source has one layout, gofmt's, tests included; CI runs no
		// formatter of its own, so this is where an unformatted file fails.
		// The frozen benchmark is left as it is.
		name: "Go files are gofmt-clean",
		checks: []shapeCheck{{scope{under: []string{""}, except: []string{"benchmark/"}, code: true, tests: true}, func(t *tree, files []goFile) (out []string) {
			for _, f := range files {
				if formatted, err := format.Source(f.src); err != nil || !bytes.Equal(formatted, f.src) {
					out = append(out, f.path+": not gofmt-clean (run gofmt -w)")
				}
			}
			return out
		}}},
		fixtures: []fixture{
			cmdFile("var  unformatted = 1"),
			{"internal/seq/shapefixture_test.go": add("package seq\n\nfunc unformatted() {\nreturn\n}\n")},
		},
	},
	{
		// go test -run passes when nothing matches, so a test renamed away
		// from a race step's pattern would drop out of the race job without
		// a failure. Every alternative of every -run pattern in ci.yml must
		// match a Test function of the packages its command lists.
		name: "CI's named race tests exist",
		checks: []shapeCheck{{scope{under: []string{""}, tests: true}, func(t *tree, files []goFile) (out []string) {
			tests := map[string][]string{} // directory → its Test functions
			t.inspect(files, func(f goFile, n ast.Node) {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
					tests[f.dir()] = append(tests[f.dir()], fd.Name.Name)
				}
			})
			for _, cmd := range goTestRun.FindAllStringSubmatch(t.ci, -1) {
				if cmd[1] == "^$" {
					continue // runs no test, by design
				}
				var names []string
				for _, arg := range strings.Fields(cmd[2]) {
					if dir, ok := strings.CutPrefix(arg, "./"); ok {
						names = append(names, tests[path.Clean(dir)]...)
					}
				}
				for _, alt := range strings.Split(cmd[1], "|") {
					re, err := regexp.Compile(alt)
					if err != nil || !slices.ContainsFunc(names, re.MatchString) {
						out = append(out, fmt.Sprintf("%s: -run alternative %q matches no test of %s", ciPath, alt, strings.TrimSpace(cmd[2])))
					}
				}
			}
			return out
		}}},
		fixtures: []fixture{
			{ciPath: func(old string) string { return strings.Replace(old, "|SlotReuse|", "|SlotReused|", 1) }},
		},
	},
}

const ciPath = ".github/workflows/ci.yml"

// goTestRun matches a go test command with a -run pattern: the pattern, then
// the rest of the line, which lists the packages.
var goTestRun = regexp.MustCompile(`go test [^\n]*?-run '([^']*)'([^\n]*)`)

// flagAssign matches a command-line flag assignment, -name=.
var flagAssign = regexp.MustCompile(`(^|\s)-[a-z][a-z0-9-]*=`)

// mirrorSite is the one function outside internal/core that holds a memory:
// nvm's Mirror, as "file function".
const mirrorSite = "internal/nvm/mirror.go Mirror"

// prefillSites are the two Prefills that mirror a replay to their other
// replicas, each as "file function".
var prefillSites = map[string]bool{"internal/core/engine.go Prefill": true, "internal/cxpuc/execute.go Prefill": true}

// constructions are the packages whose Config literals and New calls
// belong in the package itself.
var constructions = map[string]bool{
	"prepuc/internal/core": true, "prepuc/internal/cxpuc": true, "prepuc/internal/soft": true,
	"prepuc/internal/onll": true, "prepuc/internal/gluc": true,
}

// shipped is the code users run or learn from: every non-test file outside
// the frozen benchmark.
var shipped = scope{under: []string{""}, except: []string{"benchmark/"}, code: true}

// coreFixture opens a method of core.PREP for a fixture to finish.
const coreFixture = "package core\n\nimport \"prepuc/internal/sim\"\n\nfunc (p *PREP) shapeFixture(t *sim.Thread) { "

// shapeRule is one thing the repository does in one way; name is the CI
// step the rule replaced.
type shapeRule struct {
	name     string
	checks   []shapeCheck
	fixtures []fixture // violations, each of which some check must report
}

// shapeCheck reports, one "file:line: what" each, the violations among the
// files in its scope; t also carries the files outside it and ci.yml.
type shapeCheck struct {
	scope scope
	match func(t *tree, files []goFile) []string
}

// scope is the Go files under one of the path prefixes and under none of
// the exceptions, non-test files (type-checked) if code is set and _test.go
// files (parsed only) if tests is.
type scope struct {
	under, except []string
	code, tests   bool
}

// fixture lays files over the tree: each path's new content, given its old
// one ("" for a file the tree lacks).
type fixture map[string]func(old string) string

// add is a fixture file the tree lacks.
func add(src string) func(string) string { return func(string) string { return src } }

// cmdFile is a fixture adding a file with the given declarations to a
// command under cmd/.
func cmdFile(decls string) fixture {
	return fixture{"cmd/shapefixture/fixture.go": add("package shapefixture\n\n" + decls + "\n")}
}

// TestShapeRules runs every shape rule on the tree, which must pass it, and
// on each of the rule's fixtures, which must fail it.
func TestShapeRules(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := m.tree(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range shapeRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(clean) {
				t.Error(v)
			}
			for i, fx := range r.fixtures {
				tr, err := m.tree(fx)
				if err != nil {
					t.Fatalf("fixture %d: %v", i, err)
				}
				if len(r.check(tr)) == 0 {
					t.Errorf("fixture %d (%s) is not reported", i, strings.Join(slices.Sorted(maps.Keys(fx)), ", "))
				}
			}
		})
	}
}

// TestShapeRulesReadNoCommentOrString: every rule's subject written into
// comments, and into strings where a string is not the subject, trips no
// rule.
func TestShapeRulesReadNoCommentOrString(t *testing.T) {
	const said = `core.Config{} softuc.New(t, sys, cfg) sim.New(0) s.Spawn("w") p.log.SetFull(t, 0) desc.write( ` +
		`sys.HasMemory("x") import "math/rand" b.Spin() spinCost m.Hold(t, true) m.Mirror(t, d) m.Release(t) rep.rw.WriteLock(t) func BenchmarkX(b *testing.B)`
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.tree(fixture{
		"cmd/shapefixture/fixture.go":       add("package shapefixture\n\n// " + said + ` "g%d." "crasher"` + "\nconst said = `" + said + "`\n"),
		"internal/core/shapefixture.go":     add("package core\n\n// " + said + "\nconst said = `" + said + "`\n"),
		"internal/sim/shapefixture.go":      add("package sim\n\n// " + said + "\nconst said = `" + said + "`\n"),
		"internal/seq/shapefixture_test.go": add("package seq\n\n// " + said + "\nconst said = `" + said + "`\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range shapeRules {
		for _, v := range r.check(tr) {
			t.Errorf("%s: %s", r.name, v)
		}
	}
}

// check is every violation the rule's checks report.
func (r shapeRule) check(t *tree) []string {
	var out []string
	for _, c := range r.checks {
		out = append(out, c.match(t, t.in(c.scope))...)
	}
	return out
}

// tree is the repository as the shape rules read it: every Go file, sorted
// by path, and ci.yml.
type tree struct {
	fset  *token.FileSet
	files []goFile
	ci    string // ci.yml's content
}

// goFile is one Go file; info is its package's type information, nil for a
// _test.go file.
type goFile struct {
	path string // slash-separated, from the module root
	ast  *ast.File
	info *types.Info
	src  []byte
}

func (f goFile) test() bool  { return strings.HasSuffix(f.path, "_test.go") }
func (f goFile) dir() string { return path.Dir(f.path) }
func (f goFile) pkg() string { return path.Join(modPath, f.dir()) }

// tree is the module's tree with the fixture laid over it. A package a
// fixture touches is type-checked again, importing the module's packages
// as they are.
func (m *module) tree(fx fixture) (*tree, error) {
	ci, err := os.ReadFile(ciPath)
	if err != nil {
		return nil, err
	}
	t := &tree{fset: m.fset, ci: string(ci)}
	byPath := map[string]goFile{}
	for _, f := range m.files {
		p := m.fset.File(f.Pos()).Name()
		byPath[p] = goFile{p, f, m.info, m.src[p]}
	}
	for _, f := range m.tests {
		p := m.fset.File(f.Pos()).Name()
		byPath[p] = goFile{p, f, nil, m.src[p]}
	}
	touched := map[string]bool{} // directories whose code is checked again
	for p, edit := range fx {
		old, err := os.ReadFile(p)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		src := edit(string(old))
		if src == string(old) {
			return nil, fmt.Errorf("the fixture leaves %s as it is", p)
		}
		if p == ciPath {
			t.ci = src
			continue
		}
		f, err := parser.ParseFile(m.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		byPath[p] = goFile{p, f, nil, []byte(src)}
		if !byPath[p].test() {
			touched[path.Dir(p)] = true
		}
	}
	for _, p := range slices.Sorted(maps.Keys(byPath)) {
		t.files = append(t.files, byPath[p])
	}
	for dir := range touched {
		var files []*ast.File
		for _, f := range t.files {
			if f.dir() == dir && !f.test() {
				files = append(files, f.ast)
			}
		}
		info := newInfo()
		if _, err := (&types.Config{Importer: m.imp}).Check(path.Join(modPath, dir), m.fset, files, info); err != nil {
			return nil, err
		}
		for i, f := range t.files {
			if f.dir() == dir && !f.test() {
				t.files[i].info = info
			}
		}
	}
	return t, nil
}

// in is the tree's files in scope s.
func (t *tree) in(s scope) []goFile {
	var out []goFile
	for _, f := range t.files {
		has := func(prefix string) bool { return strings.HasPrefix(f.path, prefix) }
		if (f.test() && s.tests || !f.test() && s.code) && slices.ContainsFunc(s.under, has) && !slices.ContainsFunc(s.except, has) {
			out = append(out, f)
		}
	}
	return out
}

// inspect calls visit on every node of files.
func (t *tree) inspect(files []goFile, visit func(goFile, ast.Node)) {
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n != nil {
				visit(f, n)
			}
			return true
		})
	}
}

// callsTo lists the calls in files that resolve to one of the named
// functions, each as "file:line: why".
func (t *tree) callsTo(files []goFile, why string, names ...string) []string {
	var out []string
	t.inspect(files, func(f goFile, n ast.Node) {
		if fn := callee(f, n); fn != nil && slices.Contains(names, funcName(fn)) {
			out = append(out, t.at(n)+": "+why)
		}
	})
	return out
}

// at is a node's position as "file:line".
func (t *tree) at(n ast.Node) string {
	p := t.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// calls counts the calls under root that resolve to the named function.
func calls(f goFile, root ast.Node, name string) (n int) {
	ast.Inspect(root, func(m ast.Node) bool {
		if fn := callee(f, m); fn != nil && funcName(fn) == name {
			n++
		}
		return true
	})
	return n
}

// callee is the function or method a call in a non-test file resolves to,
// nil if n is no such call.
func callee(f goFile, n ast.Node) *types.Func {
	call, ok := n.(*ast.CallExpr)
	if !ok || f.test() {
		return nil
	}
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	fn, _ := f.info.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return fn.Origin()
}

// funcName names a module function "internal/sim.New" and a method
// "internal/oplog.Log.SetFull".
func funcName(fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), modPath+"/") + "."
	if recv := fn.Signature().Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// typeName is the named type of a value of type t (or of *t), nil if it has
// none.
func typeName(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if named := namedOf(types.Unalias(t)); named != nil && named.Obj().Pkg() != nil {
		return named.Obj()
	}
	return nil
}

// stringLit is the value of a string literal.
func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
