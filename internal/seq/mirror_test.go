package seq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// mirrorTypes is every object type with the update codes a mix of its
// operations draws from.
var mirrorTypes = map[string]struct {
	obj   uc.ObjectType
	codes []uint64
}{
	"HashMapType":  {HashMapType(4), []uint64{uc.OpInsert, uc.OpInsert, uc.OpDelete, uc.OpGet}},
	"ListSetType":  {ListSetType(), []uint64{uc.OpInsert, uc.OpInsert, uc.OpDelete, uc.OpContains}},
	"RBTreeType":   {RBTreeType(), []uint64{uc.OpInsert, uc.OpInsert, uc.OpDelete, uc.OpGet}},
	"SkipListType": {SkipListType(), []uint64{uc.OpInsert, uc.OpInsert, uc.OpDelete, uc.OpGet}},
	"QueueType":    {QueueType(), []uint64{uc.OpEnqueue, uc.OpEnqueue, uc.OpDequeue, uc.OpPeek}},
	"StackType":    {StackType(), []uint64{uc.OpPush, uc.OpPush, uc.OpPop, uc.OpTop}},
	"PQueueType":   {PQueueType(), []uint64{uc.OpInsert, uc.OpInsert, uc.OpDeleteMin, uc.OpMin}},
}

// A prefill mirrors one replica's heap to the others and leaves every other
// replica the handle its Factory returned (nvm.Memory.Mirror), so no handle
// may keep state outside its heap. For every object type the package
// declares: a handle's fields are the allocator and a header offset, and
// after a mix of operations applied through the source's handle under a
// mirror, each destination's handle dumps what the source's does.
func TestHandlesLiveInTheirHeap(t *testing.T) {
	if got, want := declaredTypes(t), slices.Sorted(maps.Keys(mirrorTypes)); !slices.Equal(got, want) {
		t.Fatalf("the package declares %v, the test covers %v", got, want)
	}
	for name, tc := range mirrorTypes {
		t.Run(name, func(t *testing.T) {
			sch := sim.New(0)
			sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.DefaultCosts(), BGFlushOneIn: 2})
			heaps := []*nvm.Memory{
				sys.NewMemory("src", nvm.Volatile, 0, 1<<14),
				sys.NewMemory("vol", nvm.Volatile, 1, 1<<14),
				sys.NewMemory("nvm", nvm.NVM, 0, 1<<14),
			}
			sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
				var dss []uc.DataStructure
				for _, h := range heaps {
					ds := tc.obj.New(th, pmem.New(th, h))
					if fields := handleFields(ds); fields != "*pmem.Allocator uint64" {
						t.Errorf("%T holds %s, want only an allocator and a header offset", ds, fields)
						return
					}
					dss = append(dss, ds)
				}
				heaps[0].Mirror(th, heaps[1:]...)
				x := uint64(0x2545F4914F6CDD1D)
				for i := 0; i < 400; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					dss[0].Execute(th, tc.codes[x%uint64(len(tc.codes))], (x>>8)%97, x>>40)
				}
				heaps[0].Release(th)
				var dumps [][]uint64
				for _, ds := range dss {
					var dump []uint64
					ds.Dump(th, func(code, a0, a1 uint64) { dump = append(dump, code, a0, a1) })
					dumps = append(dumps, dump)
				}
				if len(dumps[0]) == 0 || !slices.Equal(dumps[1], dumps[0]) || !slices.Equal(dumps[2], dumps[0]) {
					t.Errorf("dumps %v, %v and %v differ, or the source is empty", dumps[0], dumps[1], dumps[2])
				}
			})
			sch.Run()
		})
	}
}

// handleFields lists the field types of the struct ds points to.
func handleFields(ds uc.DataStructure) string {
	typ := reflect.TypeOf(ds).Elem()
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Type.String())
	}
	return strings.Join(fields, " ")
}

// declaredTypes lists the package's exported functions that return a
// uc.ObjectType, sorted.
func declaredTypes(t *testing.T) []string {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
				continue
			}
			if sel, ok := fd.Type.Results.List[0].Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "ObjectType" {
				names = append(names, fd.Name.Name)
			}
		}
	}
	slices.Sort(names)
	return names
}
