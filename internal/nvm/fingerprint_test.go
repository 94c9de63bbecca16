package nvm

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"prepuc/internal/sim"
)

// referenceFingerprint is PersistedFingerprint written the plain way: every
// NVM memory's name, a zero byte, its size and every persisted word, each
// word as eight big-endian bytes, through the standard library's FNV-1a.
func referenceFingerprint(s *System) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, m := range s.order {
		if m.kind != NVM {
			continue
		}
		h.Write([]byte(m.name))
		h.Write([]byte{0})
		word(m.words)
		for off := uint64(0); off < m.words; off++ {
			word(m.PersistedLoad(off))
		}
	}
	return h.Sum64()
}

// TestPersistedFingerprintMatchesReference holds the page-skipping digest
// to the byte-wise reference on a fresh machine, a partly written one, a
// clone, and a crash-recovered machine, over memories whose sizes are not a
// page multiple (so the last page of each is short) and one that spans
// several pages.
func TestPersistedFingerprintMatchesReference(t *testing.T) {
	check := func(label string, s *System) uint64 {
		t.Helper()
		got, want := s.PersistedFingerprint(), referenceFingerprint(s)
		if got != want {
			t.Fatalf("%s: fingerprint %#x, byte-wise reference %#x", label, got, want)
		}
		return got
	}

	boot := sim.New(1)
	sys := NewSystem(boot, Config{Costs: sim.UnitCosts(), Seed: 3})
	heap := sys.NewMemory("heap", NVM, 0, 3*pageWords+100) // short final page
	sys.NewMemory("dram", Volatile, 0, pageWords)
	tail := sys.NewMemory("tail", NVM, 0, 13) // rounded to two lines, one short page
	fresh := check("fresh", sys)

	boot.Spawn("init", 0, 0, func(th *sim.Thread) {
		f := sys.NewFlusher()
		// Persist a line on the second page and in the short final page,
		// leaving the first and third pages zero.
		for _, off := range []uint64{pageWords + 8, 3*pageWords + 96} {
			heap.Store(th, off, off|1<<40)
			f.FlushLineSync(th, heap, off)
		}
		tail.Store(th, 12, 7)
		f.FlushLineSync(th, tail, 8)
	})
	boot.Run()
	written := check("partly written", sys)
	if written == fresh {
		t.Fatal("persisting words left the fingerprint unchanged")
	}

	clone := sys.Clone(sim.New(2))
	if check("clone", clone) != written {
		t.Fatal("a clone's fingerprint differs from its parent's")
	}

	// Crash with flushed-but-unfenced lines pending on the third page, so
	// recovery materializes some of them and privatizes a zero page.
	sch := sim.New(4)
	sys.SetScheduler(sch)
	sch.Spawn("mut", 0, 0, func(th *sim.Thread) {
		f := sys.NewFlusher()
		for line := uint64(0); line < 8; line++ {
			off := 2*pageWords + line*WordsPerLine
			heap.Store(th, off, line+1)
			f.FlushLine(th, heap, off)
		}
		sch.CrashNow()
	})
	sch.Run()
	rec := sys.Recover(sim.New(5))
	if check("recovered", rec) == written {
		t.Fatal("recovery materialized none of the pending lines")
	}
	check("crashed", sys)
}
