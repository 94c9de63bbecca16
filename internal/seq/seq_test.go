package seq

import (
	"math/rand"
	"sort"
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// run executes fn on one simulated thread with a fresh heap.
func run(t *testing.T, words uint64, fn func(*sim.Thread, *pmem.Allocator)) {
	t.Helper()
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{})
	m := sys.NewMemory("heap", nvm.Volatile, 0, words)
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		fn(th, pmem.New(th, m))
	})
	sch.Run()
}

// --- HashMap ---

func TestHashMapPutGet(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		h := NewHashMap(th, a, 8)
		if got := h.Put(th, 1, 100); got != 1 {
			t.Errorf("fresh Put = %d, want 1", got)
		}
		if got := h.Get(th, 1); got != 100 {
			t.Errorf("Get = %d, want 100", got)
		}
		if got := h.Get(th, 2); got != uc.NotFound {
			t.Errorf("Get missing = %d, want NotFound", got)
		}
	})
}

func TestHashMapUpdateExisting(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		h := NewHashMap(th, a, 8)
		h.Put(th, 5, 1)
		if got := h.Put(th, 5, 2); got != 0 {
			t.Errorf("overwrite Put = %d, want 0", got)
		}
		if got := h.Get(th, 5); got != 2 {
			t.Errorf("Get after overwrite = %d, want 2", got)
		}
		if got := h.Size(th); got != 1 {
			t.Errorf("Size = %d, want 1", got)
		}
	})
}

func TestHashMapDelete(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		h := NewHashMap(th, a, 8)
		h.Put(th, 7, 70)
		if got := h.Delete(th, 7); got != 1 {
			t.Errorf("Delete present = %d, want 1", got)
		}
		if got := h.Delete(th, 7); got != 0 {
			t.Errorf("Delete absent = %d, want 0", got)
		}
		if got := h.Contains(th, 7); got != 0 {
			t.Errorf("Contains after delete = %d, want 0", got)
		}
	})
}

func TestHashMapDeleteMiddleOfChain(t *testing.T) {
	run(t, 1<<18, func(th *sim.Thread, a *pmem.Allocator) {
		h := NewHashMap(th, a, 4)
		// Insert enough keys that chains certainly form, then delete every
		// third and verify the rest.
		for k := uint64(0); k < 64; k++ {
			h.Put(th, k, k*2)
		}
		for k := uint64(0); k < 64; k += 3 {
			h.Delete(th, k)
		}
		for k := uint64(0); k < 64; k++ {
			want := uc.NotFound
			if k%3 != 0 {
				want = k * 2
			}
			if got := h.Get(th, k); got != want {
				t.Errorf("Get(%d) = %d, want %d", k, got, want)
			}
		}
	})
}

func TestHashMapResizes(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		h := NewHashMap(th, a, 4)
		buckets := func() uint64 { return a.Memory().Load(th, h.hdr+hmNBucket) }
		before := buckets()
		for k := uint64(0); k < 1000; k++ {
			h.Put(th, k, k)
		}
		if after := buckets(); after <= before {
			t.Errorf("buckets %d -> %d, expected growth", before, after)
		}
		for k := uint64(0); k < 1000; k++ {
			if got := h.Get(th, k); got != k {
				t.Errorf("Get(%d) = %d after resize", k, got)
			}
		}
		if got := h.Size(th); got != 1000 {
			t.Errorf("Size = %d, want 1000", got)
		}
	})
}

func TestHashMapAgainstModel(t *testing.T) {
	run(t, 1<<22, func(th *sim.Thread, a *pmem.Allocator) {
		h := NewHashMap(th, a, 8)
		model := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(int64(th.ID())))
		for i := 0; i < 5000; i++ {
			k := uint64(rng.Intn(300))
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				_, existed := model[k]
				got := h.Put(th, k, v)
				want := uint64(1)
				if existed {
					want = 0
				}
				if got != want {
					t.Fatalf("Put(%d) = %d, want %d", k, got, want)
				}
				model[k] = v
			case 1:
				_, existed := model[k]
				got := h.Delete(th, k)
				want := uint64(0)
				if existed {
					want = 1
				}
				if got != want {
					t.Fatalf("Delete(%d) = %d, want %d", k, got, want)
				}
				delete(model, k)
			default:
				want, existed := model[k]
				if !existed {
					want = uc.NotFound
				}
				if got := h.Get(th, k); got != want {
					t.Fatalf("Get(%d) = %d, want %d", k, got, want)
				}
			}
		}
		if got := h.Size(th); got != uint64(len(model)) {
			t.Fatalf("Size = %d, model has %d", got, len(model))
		}
	})
}

func TestHashMapDumpRebuilds(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		h := NewHashMap(th, a, 8)
		for k := uint64(0); k < 200; k++ {
			h.Put(th, k, k+1000)
		}
		var pairs [][2]uint64
		h.Dump(th, func(code, a0, a1 uint64) {
			if code != uc.OpInsert {
				t.Fatalf("Dump emitted code %d", code)
			}
			pairs = append(pairs, [2]uint64{a0, a1})
		})
		if len(pairs) != 200 {
			t.Fatalf("Dump emitted %d pairs, want 200", len(pairs))
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
		for i, p := range pairs {
			if p[0] != uint64(i) || p[1] != uint64(i)+1000 {
				t.Fatalf("pair %d = %v", i, p)
			}
		}
	})
}

func TestHashMapAttach(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		h := NewHashMap(th, a, 8)
		h.Put(th, 3, 33)
		h2 := AttachHashMap(th, a)
		if got := h2.Get(th, 3); got != 33 {
			t.Errorf("attached Get = %d, want 33", got)
		}
	})
}

func TestHashMapExecuteDispatch(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		var ds uc.DataStructure = NewHashMap(th, a, 8)
		ds.Execute(th, uc.OpInsert, 9, 90)
		if got := ds.Execute(th, uc.OpGet, 9, 0); got != 90 {
			t.Errorf("Execute(Get) = %d", got)
		}
		if got := ds.Execute(th, uc.OpContains, 9, 0); got != 1 {
			t.Errorf("Execute(Contains) = %d", got)
		}
		if got := ds.Execute(th, uc.OpSize, 0, 0); got != 1 {
			t.Errorf("Execute(Size) = %d", got)
		}
		if got := ds.Execute(th, uc.OpDelete, 9, 0); got != 1 {
			t.Errorf("Execute(Delete) = %d", got)
		}
		if !ds.IsReadOnly(uc.OpGet) || ds.IsReadOnly(uc.OpInsert) {
			t.Error("IsReadOnly misclassifies")
		}
	})
}

// --- RBTree ---

func TestRBTreePutGet(t *testing.T) {
	run(t, 1<<18, func(th *sim.Thread, a *pmem.Allocator) {
		r := NewRBTree(th, a)
		keys := []uint64{50, 20, 80, 10, 30, 70, 90, 25, 35}
		for _, k := range keys {
			if got := r.Put(th, k, k*10); got != 1 {
				t.Errorf("Put(%d) = %d, want 1", k, got)
			}
		}
		for _, k := range keys {
			if got := r.Get(th, k); got != k*10 {
				t.Errorf("Get(%d) = %d, want %d", k, got, k*10)
			}
		}
		if got := r.Get(th, 999); got != uc.NotFound {
			t.Errorf("Get missing = %d", got)
		}
		r.checkInvariants(th)
	})
}

func TestRBTreeSequentialInsertBalanced(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		r := NewRBTree(th, a)
		for k := uint64(0); k < 1024; k++ {
			r.Put(th, k, k)
		}
		bh := r.checkInvariants(th)
		// A red-black tree of 1024 nodes has black height ≤ ~11.
		if bh > 12 {
			t.Errorf("black height %d suspiciously large", bh)
		}
		if got := r.Size(th); got != 1024 {
			t.Errorf("Size = %d", got)
		}
	})
}

func TestRBTreeDeleteAll(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		r := NewRBTree(th, a)
		const n = 300
		for k := uint64(0); k < n; k++ {
			r.Put(th, k, k)
		}
		// Delete in a scrambled order, checking invariants as we go.
		for i := uint64(0); i < n; i++ {
			k := (i * 7919) % n
			if got := r.Delete(th, k); got != 1 {
				t.Fatalf("Delete(%d) = %d, want 1", k, got)
			}
			if i%37 == 0 {
				r.checkInvariants(th)
			}
		}
		if got := r.Size(th); got != 0 {
			t.Errorf("Size after deleting all = %d", got)
		}
		r.checkInvariants(th)
	})
}

func TestRBTreeDeleteAbsent(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		r := NewRBTree(th, a)
		r.Put(th, 1, 1)
		if got := r.Delete(th, 2); got != 0 {
			t.Errorf("Delete absent = %d, want 0", got)
		}
	})
}

func TestRBTreeAgainstModel(t *testing.T) {
	run(t, 1<<22, func(th *sim.Thread, a *pmem.Allocator) {
		r := NewRBTree(th, a)
		model := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(int64(th.ID())))
		for i := 0; i < 4000; i++ {
			k := uint64(rng.Intn(250))
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				_, existed := model[k]
				want := uint64(1)
				if existed {
					want = 0
				}
				if got := r.Put(th, k, v); got != want {
					t.Fatalf("Put(%d) = %d, want %d", k, got, want)
				}
				model[k] = v
			case 1:
				_, existed := model[k]
				want := uint64(0)
				if existed {
					want = 1
				}
				if got := r.Delete(th, k); got != want {
					t.Fatalf("Delete(%d) = %d, want %d", k, got, want)
				}
				delete(model, k)
			default:
				want, existed := model[k]
				if !existed {
					want = uc.NotFound
				}
				if got := r.Get(th, k); got != want {
					t.Fatalf("Get(%d) = %d, want %d", k, got, want)
				}
			}
			if i%500 == 0 {
				r.checkInvariants(th)
			}
		}
		r.checkInvariants(th)
		if got := r.Size(th); got != uint64(len(model)) {
			t.Fatalf("Size = %d, model %d", got, len(model))
		}
	})
}

func TestRBTreeDumpSorted(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		r := NewRBTree(th, a)
		rng := rand.New(rand.NewSource(int64(th.ID())))
		inserted := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			k := rng.Uint64() % 10000
			r.Put(th, k, k)
			inserted[k] = true
		}
		var keys []uint64
		r.Dump(th, func(code, a0, a1 uint64) { keys = append(keys, a0) })
		if len(keys) != len(inserted) {
			t.Fatalf("Dump emitted %d keys, want %d", len(keys), len(inserted))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("Dump not sorted at %d: %d >= %d", i, keys[i-1], keys[i])
			}
		}
	})
}

// --- PQueue ---

func TestPQueueOrdering(t *testing.T) {
	run(t, 1<<18, func(th *sim.Thread, a *pmem.Allocator) {
		p := NewPQueue(th, a)
		input := []uint64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
		for _, k := range input {
			p.Enqueue(th, k)
		}
		for want := uint64(0); want < 10; want++ {
			if got := p.Min(th); got != want {
				t.Fatalf("Min = %d, want %d", got, want)
			}
			if got := p.DeleteMin(th); got != want {
				t.Fatalf("DeleteMin = %d, want %d", got, want)
			}
		}
		if got := p.DeleteMin(th); got != uc.NotFound {
			t.Errorf("DeleteMin on empty = %d", got)
		}
	})
}

func TestPQueueGrows(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		p := NewPQueue(th, a)
		for k := uint64(2000); k > 0; k-- {
			p.Enqueue(th, k)
		}
		if got := p.Size(th); got != 2000 {
			t.Fatalf("Size = %d", got)
		}
		for want := uint64(1); want <= 2000; want++ {
			if got := p.DeleteMin(th); got != want {
				t.Fatalf("DeleteMin = %d, want %d", got, want)
			}
		}
	})
}

func TestPQueueDuplicates(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		p := NewPQueue(th, a)
		for i := 0; i < 5; i++ {
			p.Enqueue(th, 7)
		}
		for i := 0; i < 5; i++ {
			if got := p.DeleteMin(th); got != 7 {
				t.Fatalf("DeleteMin = %d, want 7", got)
			}
		}
	})
}

func TestPQueueAgainstModel(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		p := NewPQueue(th, a)
		var model []uint64
		rng := rand.New(rand.NewSource(int64(th.ID())))
		for i := 0; i < 3000; i++ {
			if len(model) == 0 || rng.Intn(2) == 0 {
				k := rng.Uint64() % 1000
				p.Enqueue(th, k)
				model = append(model, k)
				sort.Slice(model, func(a, b int) bool { return model[a] < model[b] })
			} else {
				if got := p.DeleteMin(th); got != model[0] {
					t.Fatalf("DeleteMin = %d, want %d", got, model[0])
				}
				model = model[1:]
			}
		}
	})
}

func TestPQueueDumpRebuild(t *testing.T) {
	run(t, 1<<18, func(th *sim.Thread, a *pmem.Allocator) {
		p := NewPQueue(th, a)
		for _, k := range []uint64{9, 4, 6, 2, 8} {
			p.Enqueue(th, k)
		}
		p2 := NewPQueue(th, a) // second instance in same heap (tests only)
		p.Dump(th, func(code, a0, a1 uint64) { p2.Execute(th, code, a0, a1) })
		for _, want := range []uint64{2, 4, 6, 8, 9} {
			if got := p2.DeleteMin(th); got != want {
				t.Fatalf("rebuilt DeleteMin = %d, want %d", got, want)
			}
		}
	})
}

// --- Stack ---

func TestStackLIFO(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		s := NewStack(th, a)
		for v := uint64(1); v <= 5; v++ {
			s.Push(th, v)
		}
		if got := s.Top(th); got != 5 {
			t.Errorf("Top = %d, want 5", got)
		}
		for want := uint64(5); want >= 1; want-- {
			if got := s.Pop(th); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
		}
		if got := s.Pop(th); got != uc.NotFound {
			t.Errorf("Pop empty = %d", got)
		}
		if got := s.Top(th); got != uc.NotFound {
			t.Errorf("Top empty = %d", got)
		}
	})
}

func TestStackDumpPreservesOrder(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		s := NewStack(th, a)
		for v := uint64(1); v <= 10; v++ {
			s.Push(th, v)
		}
		s2 := NewStack(th, a)
		s.Dump(th, func(code, a0, a1 uint64) { s2.Execute(th, code, a0, a1) })
		for want := uint64(10); want >= 1; want-- {
			if got := s2.Pop(th); got != want {
				t.Fatalf("rebuilt Pop = %d, want %d", got, want)
			}
		}
	})
}

func TestStackSize(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		s := NewStack(th, a)
		s.Push(th, 1)
		s.Push(th, 2)
		s.Pop(th)
		if got := s.Size(th); got != 1 {
			t.Errorf("Size = %d, want 1", got)
		}
	})
}

// --- Queue ---

func TestQueueFIFO(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		q := NewQueue(th, a)
		for v := uint64(1); v <= 5; v++ {
			q.Enqueue(th, v)
		}
		if got := q.Peek(th); got != 1 {
			t.Errorf("Peek = %d, want 1", got)
		}
		for want := uint64(1); want <= 5; want++ {
			if got := q.Dequeue(th); got != want {
				t.Fatalf("Dequeue = %d, want %d", got, want)
			}
		}
		if got := q.Dequeue(th); got != uc.NotFound {
			t.Errorf("Dequeue empty = %d", got)
		}
	})
}

func TestQueueInterleavedEnqDeq(t *testing.T) {
	run(t, 1<<18, func(th *sim.Thread, a *pmem.Allocator) {
		q := NewQueue(th, a)
		var model []uint64
		rng := rand.New(rand.NewSource(int64(th.ID())))
		for i := 0; i < 2000; i++ {
			if len(model) == 0 || rng.Intn(2) == 0 {
				v := rng.Uint64()
				q.Enqueue(th, v)
				model = append(model, v)
			} else {
				if got := q.Dequeue(th); got != model[0] {
					t.Fatalf("Dequeue = %d, want %d", got, model[0])
				}
				model = model[1:]
			}
		}
		if got := q.Size(th); got != uint64(len(model)) {
			t.Fatalf("Size = %d, model %d", got, len(model))
		}
	})
}

func TestQueueEmptyAfterDrainReusable(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		q := NewQueue(th, a)
		q.Enqueue(th, 1)
		q.Dequeue(th)
		q.Enqueue(th, 2) // tail must be rebuilt correctly
		if got := q.Dequeue(th); got != 2 {
			t.Errorf("Dequeue = %d, want 2", got)
		}
	})
}

func TestQueueDumpPreservesOrder(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		q := NewQueue(th, a)
		for v := uint64(1); v <= 8; v++ {
			q.Enqueue(th, v)
		}
		q2 := NewQueue(th, a)
		q.Dump(th, func(code, a0, a1 uint64) { q2.Execute(th, code, a0, a1) })
		for want := uint64(1); want <= 8; want++ {
			if got := q2.Dequeue(th); got != want {
				t.Fatalf("rebuilt Dequeue = %d, want %d", got, want)
			}
		}
	})
}

// --- Cross-cutting: uc.Clone across heaps ---

func TestCloneAcrossHeaps(t *testing.T) {
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{})
	m1 := sys.NewMemory("src", nvm.Volatile, 0, 1<<20)
	m2 := sys.NewMemory("dst", nvm.NVM, 0, 1<<20)
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		a1 := pmem.New(th, m1)
		a2 := pmem.New(th, m2)
		src := NewHashMap(th, a1, 8)
		for k := uint64(0); k < 100; k++ {
			src.Put(th, k, k*3)
		}
		dst := NewHashMap(th, a2, 8)
		uc.Clone(th, src, dst)
		for k := uint64(0); k < 100; k++ {
			if got := dst.Get(th, k); got != k*3 {
				t.Errorf("cloned Get(%d) = %d, want %d", k, got, k*3)
			}
		}
		if got := dst.Size(th); got != 100 {
			t.Errorf("cloned Size = %d", got)
		}
	})
	sch.Run()
}

func TestAllStructuresImplementDataStructure(t *testing.T) {
	var _ uc.DataStructure = (*HashMap)(nil)
	var _ uc.DataStructure = (*RBTree)(nil)
	var _ uc.DataStructure = (*PQueue)(nil)
	var _ uc.DataStructure = (*Stack)(nil)
	var _ uc.DataStructure = (*Queue)(nil)
}

// checkInvariants validates red-black properties. It returns
// the black height and panics on violations.
func (r *RBTree) checkInvariants(t *sim.Thread) int {
	m := r.a.Memory()
	nilN := r.nilNode(t)
	root := r.root(t)
	if root != nilN && m.Load(t, root+rnColor) != black {
		panic("rbtree: root is red")
	}
	var walk func(n uint64, lo, hi uint64, hasLo, hasHi bool) int
	walk = func(n uint64, lo, hi uint64, hasLo, hasHi bool) int {
		if n == nilN {
			return 1
		}
		k := m.Load(t, n+rnKey)
		if hasLo && k <= lo {
			panic("rbtree: BST order violated (low)")
		}
		if hasHi && k >= hi {
			panic("rbtree: BST order violated (high)")
		}
		c := m.Load(t, n+rnColor)
		l := m.Load(t, n+rnLeft)
		rt := m.Load(t, n+rnRight)
		if c == red {
			if m.Load(t, l+rnColor) == red || m.Load(t, rt+rnColor) == red {
				panic("rbtree: red node with red child")
			}
		}
		lh := walk(l, lo, k, hasLo, true)
		rh := walk(rt, k, hi, true, hasHi)
		if lh != rh {
			panic("rbtree: black height mismatch")
		}
		if c == black {
			return lh + 1
		}
		return lh
	}
	return walk(root, 0, 0, false, false)
}
