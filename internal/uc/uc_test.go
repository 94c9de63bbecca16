package uc

import (
	"testing"

	"prepuc/internal/sim"
)

func TestOpNameCoversAllCodes(t *testing.T) {
	codes := []uint64{OpGet, OpContains, OpInsert, OpDelete, OpSize, OpPush,
		OpPop, OpTop, OpEnqueue, OpDequeue, OpPeek, OpDeleteMin, OpMin}
	seen := map[string]bool{}
	for _, c := range codes {
		name := OpName(c)
		if name == "unknown" {
			t.Errorf("code %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
	}
	if OpName(9999) != "unknown" {
		t.Error("unknown code should map to 'unknown'")
	}
}

// fakeDS is a minimal DataStructure for Clone testing.
type fakeDS struct {
	vals map[uint64]uint64
}

func (f *fakeDS) Execute(t *sim.Thread, code, a0, a1 uint64) uint64 {
	switch code {
	case OpInsert:
		f.vals[a0] = a1
		return 1
	case OpGet:
		v, ok := f.vals[a0]
		if !ok {
			return NotFound
		}
		return v
	}
	return 0
}
func (f *fakeDS) IsReadOnly(code uint64) bool { return code == OpGet }
func (f *fakeDS) Dump(t *sim.Thread, emit func(code, a0, a1 uint64)) {
	for k, v := range f.vals {
		emit(OpInsert, k, v)
	}
}

func TestCloneReplaysDump(t *testing.T) {
	src := &fakeDS{vals: map[uint64]uint64{1: 10, 2: 20, 3: 30}}
	dst := &fakeDS{vals: map[uint64]uint64{}}
	sch := sim.New(1)
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		Clone(th, src, dst)
	})
	sch.Run()
	if len(dst.vals) != 3 {
		t.Fatalf("cloned %d entries, want 3", len(dst.vals))
	}
	for k, v := range src.vals {
		if dst.vals[k] != v {
			t.Errorf("key %d: %d, want %d", k, dst.vals[k], v)
		}
	}
}

func TestNotFoundSentinel(t *testing.T) {
	if NotFound != ^uint64(0) {
		t.Error("NotFound sentinel changed; log-encoded responses depend on it")
	}
}
