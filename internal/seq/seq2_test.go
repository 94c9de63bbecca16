package seq

import (
	"math/rand"
	"testing"

	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// --- SkipList ---

func TestSkipListPutGetDelete(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		s := NewSkipList(th, a)
		for k := uint64(0); k < 500; k++ {
			if got := s.Put(th, k*3, k); got != 1 {
				t.Fatalf("Put(%d) = %d", k*3, got)
			}
		}
		for k := uint64(0); k < 500; k++ {
			if got := s.Get(th, k*3); got != k {
				t.Fatalf("Get(%d) = %d, want %d", k*3, got, k)
			}
			if got := s.Get(th, k*3+1); got != uc.NotFound {
				t.Fatalf("Get(miss) = %d", got)
			}
		}
		for k := uint64(0); k < 500; k += 2 {
			if got := s.Delete(th, k*3); got != 1 {
				t.Fatalf("Delete(%d) = %d", k*3, got)
			}
		}
		for k := uint64(0); k < 500; k++ {
			want := k
			if k%2 == 0 {
				want = uc.NotFound
			}
			if got := s.Get(th, k*3); got != want {
				t.Fatalf("Get(%d) = %d, want %d", k*3, got, want)
			}
		}
		if got := s.Size(th); got != 250 {
			t.Fatalf("Size = %d", got)
		}
	})
}

func TestSkipListUpdateExisting(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		s := NewSkipList(th, a)
		s.Put(th, 9, 1)
		if got := s.Put(th, 9, 2); got != 0 {
			t.Errorf("overwrite Put = %d", got)
		}
		if got := s.Get(th, 9); got != 2 {
			t.Errorf("Get = %d", got)
		}
	})
}

func TestSkipListAgainstModel(t *testing.T) {
	run(t, 1<<22, func(th *sim.Thread, a *pmem.Allocator) {
		s := NewSkipList(th, a)
		model := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(int64(th.ID())))
		for i := 0; i < 4000; i++ {
			k := uint64(rng.Intn(200))
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				_, ex := model[k]
				want := uint64(1)
				if ex {
					want = 0
				}
				if got := s.Put(th, k, v); got != want {
					t.Fatalf("Put(%d) = %d, want %d", k, got, want)
				}
				model[k] = v
			case 1:
				_, ex := model[k]
				want := uint64(0)
				if ex {
					want = 1
				}
				if got := s.Delete(th, k); got != want {
					t.Fatalf("Delete(%d) = %d, want %d", k, got, want)
				}
				delete(model, k)
			default:
				want, ex := model[k]
				if !ex {
					want = uc.NotFound
				}
				if got := s.Get(th, k); got != want {
					t.Fatalf("Get(%d) = %d, want %d", k, got, want)
				}
			}
		}
	})
}

func TestSkipListDumpSorted(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		s := NewSkipList(th, a)
		rng := rand.New(rand.NewSource(int64(th.ID())))
		for i := 0; i < 300; i++ {
			s.Put(th, rng.Uint64()%5000, 1)
		}
		var prev uint64
		first := true
		count := uint64(0)
		s.Dump(th, func(code, a0, a1 uint64) {
			if !first && a0 <= prev {
				t.Fatalf("Dump not strictly sorted: %d after %d", a0, prev)
			}
			prev, first = a0, false
			count++
		})
		if count != s.Size(th) {
			t.Fatalf("Dump emitted %d, size %d", count, s.Size(th))
		}
	})
}

func TestSkipListDeterministicShape(t *testing.T) {
	// Two instances fed the same operations converge to identical dumps —
	// replicas built by log replay must agree.
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		s1 := NewSkipList(th, a)
		s2 := NewSkipList(th, a)
		for i := uint64(0); i < 200; i++ {
			k := (i * 37) % 211
			s1.Execute(th, uc.OpInsert, k, i)
			s2.Execute(th, uc.OpInsert, k, i)
		}
		var d1, d2 [][2]uint64
		s1.Dump(th, func(_, a0, a1 uint64) { d1 = append(d1, [2]uint64{a0, a1}) })
		s2.Dump(th, func(_, a0, a1 uint64) { d2 = append(d2, [2]uint64{a0, a1}) })
		if len(d1) != len(d2) {
			t.Fatalf("dumps differ in length: %d vs %d", len(d1), len(d2))
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("dumps diverge at %d", i)
			}
		}
	})
}

// --- ListSet ---

func TestListSetSortedInsertion(t *testing.T) {
	run(t, 1<<18, func(th *sim.Thread, a *pmem.Allocator) {
		l := NewListSet(th, a)
		for _, k := range []uint64{5, 1, 9, 3, 7} {
			if got := l.Put(th, k, k*10); got != 1 {
				t.Fatalf("Put(%d) = %d", k, got)
			}
		}
		var keys []uint64
		l.Dump(th, func(_, a0, _ uint64) { keys = append(keys, a0) })
		want := []uint64{1, 3, 5, 7, 9}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("dump order %v, want %v", keys, want)
			}
		}
	})
}

func TestListSetDeleteHeadMiddleTail(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		l := NewListSet(th, a)
		for k := uint64(1); k <= 5; k++ {
			l.Put(th, k, k)
		}
		for _, k := range []uint64{1, 3, 5} { // head, middle, tail
			if got := l.Delete(th, k); got != 1 {
				t.Fatalf("Delete(%d) = %d", k, got)
			}
		}
		if got := l.Size(th); got != 2 {
			t.Fatalf("Size = %d", got)
		}
		for _, k := range []uint64{2, 4} {
			if got := l.Get(th, k); got != k {
				t.Fatalf("Get(%d) = %d", k, got)
			}
		}
	})
}

func TestListSetAgainstModel(t *testing.T) {
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		l := NewListSet(th, a)
		model := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(int64(th.ID())))
		for i := 0; i < 2500; i++ {
			k := uint64(rng.Intn(100))
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				_, ex := model[k]
				want := uint64(1)
				if ex {
					want = 0
				}
				if got := l.Put(th, k, v); got != want {
					t.Fatalf("Put(%d) = %d, want %d", k, got, want)
				}
				model[k] = v
			case 1:
				_, ex := model[k]
				want := uint64(0)
				if ex {
					want = 1
				}
				if got := l.Delete(th, k); got != want {
					t.Fatalf("Delete(%d) = %d, want %d", k, got, want)
				}
				delete(model, k)
			default:
				want, ex := model[k]
				if !ex {
					want = uc.NotFound
				}
				if got := l.Get(th, k); got != want {
					t.Fatalf("Get(%d) = %d, want %d", k, got, want)
				}
			}
		}
	})
}

func TestNewStructuresImplementDataStructure(t *testing.T) {
	var _ uc.DataStructure = (*SkipList)(nil)
	var _ uc.DataStructure = (*ListSet)(nil)
}

func TestSkipListAttach(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		s := NewSkipList(th, a)
		s.Put(th, 4, 44)
		s2 := AttachSkipList(th, a)
		if got := s2.Get(th, 4); got != 44 {
			t.Errorf("attached Get = %d", got)
		}
	})
}

func TestListSetAttach(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *pmem.Allocator) {
		l := NewListSet(th, a)
		l.Put(th, 4, 44)
		l2 := AttachListSet(th, a)
		if got := l2.Get(th, 4); got != 44 {
			t.Errorf("attached Get = %d", got)
		}
	})
}
