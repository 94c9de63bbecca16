package oplog

import (
	"testing"
	"testing/quick"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// Property: for any log size and index, the full mark alternates exactly at
// wrap boundaries — index i and i+size never share a mark, i and i+2*size
// always do, and marks are always 0 or 1.
func TestFullMarkParityProperty(t *testing.T) {
	f := func(sizeSeed uint16, idxSeed uint32) bool {
		size := uint64(sizeSeed%1024) + 2
		idx := uint64(idxSeed)
		l := &Log{size: size}
		m0 := l.FullMark(idx)
		if m0 != 0 && m0 != 1 {
			return false
		}
		return l.FullMark(idx+size) == 1-m0 && l.FullMark(idx+2*size) == m0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: entries that share a slot are exactly those whose indexes are
// congruent modulo the log size, and slots never collide otherwise.
func TestEntryOffProperty(t *testing.T) {
	f := func(sizeSeed uint16, a, b uint32) bool {
		size := uint64(sizeSeed%512) + 2
		l := &Log{size: size}
		ia, ib := uint64(a), uint64(b)
		same := l.EntryOff(ia) == l.EntryOff(ib)
		return same == (ia%size == ib%size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a write-then-mark round trip at any index yields IsFull true
// for that index, IsFull false for the same slot one pass later, and the
// stored operation reads back intact.
func TestWriteReadRoundTripProperty(t *testing.T) {
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{})
	m := sys.NewMemory("log", nvm.Volatile, nvm.Interleaved, WordsFor(64))
	var l *Log
	type probe struct{ idx, code, a0, a1 uint64 }
	var probes []probe
	f := func(idxSeed uint16, code, a0, a1 uint64) bool {
		probes = append(probes, probe{uint64(idxSeed), code, a0, a1})
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	ok := true
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		l = New(th, m, 64)
		for _, p := range probes {
			l.WriteArgs(th, p.idx, p.code, p.a0, p.a1)
			l.SetFull(th, p.idx)
			if !l.isFull(th, p.idx) {
				ok = false
				return
			}
			if l.isFull(th, p.idx+64) {
				ok = false
				return
			}
			c, x, y := l.ReadEntry(th, p.idx)
			if c != p.code || x != p.a0 || y != p.a1 {
				ok = false
				return
			}
		}
	})
	sch.Run()
	if !ok {
		t.Error("write/read round trip violated a property")
	}
}
