package workload

import (
	"testing"

	"prepuc/internal/uc"
)

func TestSetMixRatios(t *testing.T) {
	spec := SetSpec(90, 1024)
	g := NewGen(spec, 1, 0)
	reads, inserts, deletes := 0, 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		switch g.Next().Code {
		case uc.OpContains, uc.OpGet:
			reads++
		case uc.OpInsert:
			inserts++
		case uc.OpDelete:
			deletes++
		default:
			t.Fatal("unexpected op")
		}
	}
	if reads < n*85/100 || reads > n*95/100 {
		t.Errorf("reads = %d of %d, want ~90%%", reads, n)
	}
	if diff := inserts - deletes; diff < -n/50 || diff > n/50 {
		t.Errorf("inserts %d vs deletes %d: want balanced", inserts, deletes)
	}
}

func TestSetKeysInRange(t *testing.T) {
	spec := SetSpec(50, 128)
	g := NewGen(spec, 2, 3)
	for i := 0; i < 5000; i++ {
		if op := g.Next(); op.A0 >= 128 {
			t.Fatalf("key %d out of range", op.A0)
		}
	}
}

func TestPairsAlternate(t *testing.T) {
	spec := PairsSpec(uc.OpPush, uc.OpPop, 10)
	g := NewGen(spec, 3, 0)
	for i := 0; i < 100; i++ {
		op := g.Next()
		want := uc.OpPush
		if i%2 == 1 {
			want = uc.OpPop
		}
		if op.Code != want {
			t.Fatalf("op %d = %d, want %d", i, op.Code, want)
		}
	}
}

func TestPrefillSetDistinctKeys(t *testing.T) {
	spec := SetSpec(90, 1000)
	ops := spec.PrefillOps(4)
	if len(ops) != 500 {
		t.Fatalf("prefill %d ops, want 500 (50%%)", len(ops))
	}
	seen := map[uint64]bool{}
	for _, op := range ops {
		if op.Code != uc.OpInsert {
			t.Fatal("prefill op is not insert")
		}
		if seen[op.A0] {
			t.Fatalf("duplicate prefill key %d", op.A0)
		}
		seen[op.A0] = true
	}
}

func TestPrefillPairs(t *testing.T) {
	spec := PairsSpec(uc.OpEnqueue, uc.OpDequeue, 77)
	ops := spec.PrefillOps(5)
	if len(ops) != 77 {
		t.Fatalf("prefill %d ops, want 77", len(ops))
	}
	for _, op := range ops {
		if op.Code != uc.OpEnqueue {
			t.Fatal("pairs prefill must use the push code")
		}
	}
}

func TestGenDeterministicPerSeed(t *testing.T) {
	a := NewGen(SetSpec(50, 100), 9, 4)
	b := NewGen(SetSpec(50, 100), 9, 4)
	for i := 0; i < 200; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewGen(SetSpec(50, 100), 9, 5)
	same := true
	d := NewGen(SetSpec(50, 100), 9, 4)
	for i := 0; i < 50; i++ {
		if c.Next() != d.Next() {
			same = false
		}
	}
	if same {
		t.Error("different tids produced identical streams")
	}
}
