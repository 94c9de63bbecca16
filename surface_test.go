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

// testOnlyAllowed lists the exported functions and methods under internal/
// that no non-test file names, each with the reason it stays: a test of
// another package needs it, which an unexported name cannot serve.
var testOnlyAllowed = map[string]string{
	"internal/nvm.Flusher.Pending":           "the only view of the pending set's per-epoch dedup, which the flush-elision tests pin",
	"internal/nvm.System.SetBGFlushOneIn":    "core's recovery crash sweep raises eviction for the recovery phase of an already-booted machine",
	"internal/core.PREP.DumpState":           "internal/integration compares whole recovered states across double recovery through it",
	"internal/cxpuc.CX.DumpState":            "as core.PREP.DumpState",
	"internal/onll.ONLL.DumpState":           "as core.PREP.DumpState",
	"internal/explore.StrideSweep":           "the sampling reference internal/harness's TestExploreSubsumesStrideSweep holds the explorer's crash classes against",
	"internal/history.CheckEpochs":           "internal/integration's K-crash test adjudicates its epochs with the second oracle (DESIGN.md §8)",
	"internal/history.EpochKey":              "the key encoding of the same K-crash test's workload",
	"internal/history.MultiReport.TotalLost": "the K·(ε+β−1) loss bound the same test asserts",
	"internal/seq.ListSetType":               "internal/integration's differential test runs every sequential object under the constructions",
	"internal/seq.SkipListType":              "as seq.ListSetType",
}

// TestNoTestOnlyExports lists every exported function and method the
// packages under internal/ declare outside their tests and requires each name
// to appear somewhere else in a non-test file of the repository (cmd/,
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
			if !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
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
