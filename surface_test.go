package prepuc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// substrate is the packages whose exported surface TestNoTestOnlyExports
// holds to "no exported knob whose only caller is a test" (ROADMAP aim 2).
var substrate = []string{
	"internal/sim", "internal/nvm", "internal/svc",
	"internal/oplog", "internal/pmem", "internal/locks",
}

// testOnlyAllowed lists the exported functions and methods of the substrate
// packages that no non-test file names, each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"internal/nvm.Flusher.Pending":        "the only view of the pending set's per-epoch dedup, which the flush-elision tests pin",
	"internal/nvm.System.SetBGFlushOneIn": "core's recovery crash sweep raises eviction for the recovery phase of an already-booted machine",
}

// TestNoTestOnlyExports lists every exported function and method the
// substrate packages declare outside their tests and requires each name to
// appear somewhere else in a non-test file of the repository (cmd/,
// examples/, internal/, the benchmark). The match is by name, not by type:
// it cannot tell two packages' Name() apart, and does not need to — what it
// catches is a knob, codec or counter set that only its own tests reach.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]string{} // "pkg.Recv.Name" or "pkg.Name" → bare name
	uses := map[string]int{}     // bare name → mentions other than a declaration's own
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if !fn.Name.IsExported() || !slices.Contains(substrate, dir) {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := recvName(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				key = dir + "." + recv + "." + fn.Name.Name
			}
			decls[key] = fn.Name.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, name := range decls {
		if uses[name] == 0 {
			unused = append(unused, key)
		}
	}
	slices.Sort(unused)
	for _, key := range unused {
		if _, ok := testOnlyAllowed[key]; !ok {
			t.Errorf("%s is exported but no non-test file names it: delete it, unexport it, or allow it with a reason", key)
		}
	}
	for key := range testOnlyAllowed {
		if _, declared := decls[key]; !declared || uses[decls[key]] != 0 {
			t.Errorf("%s is allowed as test-only but is not: drop it from testOnlyAllowed", key)
		}
	}
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
