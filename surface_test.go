package prepuc

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testOnlyAllowed lists the functions, methods and exported types under
// internal/ that no non-test file refers to, each with the reason it stays:
// the named test of another package needs it, which an unexported name or a
// _test.go file cannot serve.
var testOnlyAllowed = map[string]string{
	"internal/nvm.System.SetBGFlushOneIn":     "internal/core's TestInPlaceReplayFailsSweep raises eviction for the recovery phase of an already-booted machine",
	"internal/core.PREP.DumpState":            "internal/integration's TestDoubleRecoveryIdempotent compares whole recovered states across double recovery through it",
	"internal/cxpuc.CX.DumpState":             "as core.PREP.DumpState",
	"internal/onll.ONLL.DumpState":            "as core.PREP.DumpState",
	"internal/explore.StrideSweep":            "the sampling reference internal/harness's TestExploreSubsumesStrideSweep holds the explorer's crash classes against",
	"internal/history.CheckEpochs":            "internal/integration's TestMultiCrashEpochs adjudicates its epochs with the second oracle (DESIGN.md §8)",
	"internal/history.EpochKey":               "the key encoding of TestMultiCrashEpochs's workload",
	"internal/history.MultiReport.DurableOK":  "TestMultiCrashEpochs's durable verdict",
	"internal/history.MultiReport.BufferedOK": "TestMultiCrashEpochs's buffered verdict",
	"internal/history.MultiReport.TotalLost":  "the K·(ε+β−1) loss bound TestMultiCrashEpochs asserts",
	"internal/seq.ListSetType":                "internal/integration's TestDifferentialListSet and TestDurableRecoveryPreservesEveryStructure run it under the constructions",
	"internal/seq.SkipListType":               "as seq.ListSetType, in TestDifferentialSkipList",
}

// TestNoTestOnlyExports type-checks every non-test file of the module and
// requires each package-level function, method and exported type declared
// under internal/ to be referred to, as that exact object, by some non-test
// file outside the object's own declaration (a type's declaration includes
// its methods). A method also counts when it implements a method of an
// interface that non-test code calls — or that fmt calls, String and Error.
// What it catches is a knob, codec or counter set that only tests reach.
func TestNoTestOnlyExports(t *testing.T) {
	m, err := loadModule()
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
	"internal/svc.Future.Invid": "internal/svc's TestDetectStampsAndCursors and TestPostedCompletionsSurviveSlotReuse check the invocation id a completion carries",
	"internal/svc.Future.Mark":  "internal/svc's TestDurableBarrierDurableMode, TestDurableBarrierForcesCycleInBufferedMode and TestPerOpFallback hand it to AwaitDurable",
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
	m, err := loadModule()
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

// module is the type-checked non-test code of the repository.
type module struct {
	info  *types.Info
	pkgs  map[string]*types.Package // by import path
	files []*ast.File
	decls []surfaceDecl
}

// surfaceDecl is one object the test holds to the rule: key names it the way
// testOnlyAllowed does ("internal/pkg.Name" or "internal/pkg.Recv.Name").
type surfaceDecl struct {
	key string
	obj types.Object
}

// loadModule parses every non-test Go file below the module root, grouped by
// directory, and type-checks the packages in import order; standard-library
// imports come from the toolchain's export data.
func loadModule() (*module, error) {
	const modPath = "prepuc"
	fset := token.NewFileSet()
	m := &module{
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs: map[string]*types.Package{},
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join(modPath, filepath.ToSlash(filepath.Dir(p)))
		dirs[ip] = append(dirs[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.Default()
	var imp importerFunc
	check := func(ip string) (*types.Package, error) {
		if pkg, ok := m.pkgs[ip]; ok {
			return pkg, nil
		}
		files := dirs[ip]
		pkg, err := (&types.Config{Importer: imp}).Check(ip, fset, files, m.info)
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
	imp = func(ip string) (*types.Package, error) {
		if _, ok := dirs[ip]; ok {
			return check(ip)
		}
		return std.Import(ip)
	}
	for _, ip := range slices.Sorted(maps.Keys(dirs)) {
		if _, err := check(ip); err != nil {
			return nil, err
		}
	}
	return m, nil
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
