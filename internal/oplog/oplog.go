// Package oplog implements the shared operation log of node replication
// (§3, Table 1): a circular buffer of update operations with three
// monotonically increasing indexes —
//
//	logTail        next free entry (reserved by CAS)
//	completedTail  last entry applied to some replica
//	logMin         entry before which all entries have been applied to every
//	               replica and may be reused
//
// Each entry carries an emptyBit whose meaning alternates every time the log
// wraps: on even passes 1 means full, on odd passes 0 means full. A reader
// expecting absolute index i therefore knows whether the entry content
// belongs to i or to a previous pass, so entries are reused without
// ambiguity and a thread never executes an operation with stale or
// incomplete arguments.
//
// The log can live in volatile memory (NR-UC, PREP-Buffered) or NVM
// (PREP-Durable); the flushing protocol belongs to the universal
// construction, which reaches the underlying words via the offset helpers.
package oplog

import (
	"prepuc/internal/metrics"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// Control-word offsets. Each control word sits on its own cache line.
const (
	offCompletedTail = 0
	offLogTail       = 8
	offLogMin        = 16
	entryBase        = 64
)

// EntryWords is the size of one log entry: one cache line.
const EntryWords = nvm.WordsPerLine

// Entry field offsets within an entry.
const (
	entEmpty = 0
	entCode  = 1
	entA0    = 2
	entA1    = 3
)

// WordsFor returns the memory size needed for a log with the given number
// of entries.
func WordsFor(entries uint64) uint64 { return entryBase + entries*EntryWords }

// Log is a view over a memory region laid out as above.
type Log struct {
	mem  *nvm.Memory
	size uint64 // entries
	met  *metrics.Registry
}

// New formats a log with size entries in mem. The region must be at least
// WordsFor(size) words and zeroed (fresh memories are).
func New(t *sim.Thread, mem *nvm.Memory, size uint64) *Log {
	if mem.Words() < WordsFor(size) {
		panic("oplog: memory too small for log")
	}
	l := &Log{mem: mem, size: size, met: mem.Metrics()}
	mem.Store(t, offCompletedTail, 0)
	mem.Store(t, offLogTail, 0)
	mem.Store(t, offLogMin, size-1)
	return l
}

// Attach re-opens an existing log (durable recovery).
func Attach(mem *nvm.Memory, size uint64) *Log {
	return &Log{mem: mem, size: size, met: mem.Metrics()}
}

// Mem exposes the backing memory (for flush protocols owned by the UC).
func (l *Log) Mem() *nvm.Memory { return l.mem }

// EntryOff returns the word offset of the entry for absolute index idx.
func (l *Log) EntryOff(idx uint64) uint64 { return entryBase + (idx%l.size)*EntryWords }

// FullMark returns the emptyBit value that means "full" for absolute index
// idx: 1 on the first pass over the buffer, 0 on the second, alternating.
func (l *Log) FullMark(idx uint64) uint64 { return 1 - (idx/l.size)%2 }

// WriteArgs stores the operation code and arguments of entry idx without
// touching the emptyBit. The paper's combiner writes all batch arguments
// first, flushes, fences, and only then sets emptyBits.
func (l *Log) WriteArgs(t *sim.Thread, idx, code, a0, a1 uint64) {
	off := l.EntryOff(idx)
	l.mem.Store(t, off+entA0, a0)
	l.mem.Store(t, off+entA1, a1)
	l.mem.Store(t, off+entCode, code)
}

// SetFull flips entry idx's emptyBit to the full mark for idx.
func (l *Log) SetFull(t *sim.Thread, idx uint64) {
	l.mem.Store(t, l.EntryOff(idx)+entEmpty, l.FullMark(idx))
}

// FullMarkOff returns the offset in Mem of entry idx's emptyBit word: the
// entry holds the operation for absolute index idx, as opposed to a previous
// pass or nothing, once the word equals FullMark(idx). Its only reader is a
// poller waiting on the full mark (sim.Thread.Await), which loads and watches
// the word itself.
func (l *Log) FullMarkOff(idx uint64) uint64 { return l.EntryOff(idx) + entEmpty }

// ReadEntry returns the operation stored for absolute index idx. Callers
// must have observed entry idx full (FullMarkOff).
func (l *Log) ReadEntry(t *sim.Thread, idx uint64) (code, a0, a1 uint64) {
	off := l.EntryOff(idx)
	return l.mem.Load(t, off+entCode), l.mem.Load(t, off+entA0), l.mem.Load(t, off+entA1)
}

// LogTail loads the next-free-entry index.
func (l *Log) LogTail(t *sim.Thread) uint64 { return l.mem.Load(t, offLogTail) }

// CASLogTail reserves entries [old, new) if no other combiner won the race.
// Attempts, failures and buffer wrap-arounds are recorded: logTail CAS
// failure rate is the direct measure of combiner contention on the shared
// log, and wraps mark where entry reuse (and its reservation gating) kicks
// in.
func (l *Log) CASLogTail(t *sim.Thread, old, new uint64) bool {
	l.met.LogTailCASAttempts++
	if !l.mem.CAS(t, offLogTail, old, new) {
		l.met.LogTailCASFailures++
		return false
	}
	if old/l.size != new/l.size {
		l.met.LogWraps++
	}
	return true
}

// CompletedTail loads the applied-up-to index.
func (l *Log) CompletedTail(t *sim.Thread) uint64 {
	return l.mem.Load(t, offCompletedTail)
}

// CompletedTailOff returns the offset in Mem of the completedTail word, for
// pollers that wait on it (sim.Thread.Await).
func (l *Log) CompletedTailOff() uint64 { return offCompletedTail }

// CASCompletedTail advances completedTail from old to new. It returns false
// if completedTail was not old.
func (l *Log) CASCompletedTail(t *sim.Thread, old, new uint64) bool {
	return l.mem.CAS(t, offCompletedTail, old, new)
}

// PersistCompletedTail makes the current completedTail durable. The paper's
// §5.2 flush-elision optimization — a CASing thread skips its CLFLUSH when a
// later value is already persisted — falls out of the substrate's FliT-style
// clean-line tracking: a combiner that lost the persist race finds the line
// clean (the winner's sync flush persisted it and no store followed) and the
// flush is elided there, so the log no longer keeps its own dirty tag on the
// word. Sound because completedTail is monotonic and recovery only needs a
// lower bound — eliding is only ever done when the persisted word already
// equals the current one.
func (l *Log) PersistCompletedTail(t *sim.Thread, f *nvm.Flusher) {
	f.FlushLineSync(t, l.mem, offCompletedTail)
}

// PersistedCompletedTail reads completedTail's persisted value (recovery).
func (l *Log) PersistedCompletedTail() uint64 {
	return l.mem.PersistedLoad(offCompletedTail)
}

// LogMin loads the reuse horizon.
func (l *Log) LogMin(t *sim.Thread) uint64 { return l.mem.Load(t, offLogMin) }

// AdvanceLogMin moves logMin forward to v if v is larger, using CAS so a
// delayed combiner holding a stale localTail scan can never move the reuse
// horizon backwards. It returns the resulting logMin.
func (l *Log) AdvanceLogMin(t *sim.Thread, v uint64) uint64 {
	for {
		cur := l.mem.Load(t, offLogMin)
		if v <= cur {
			return cur
		}
		if l.mem.CAS(t, offLogMin, cur, v) {
			return v
		}
	}
}

// PersistedIsFull checks an entry's full mark in the persisted view
// (durable recovery).
func (l *Log) PersistedIsFull(idx uint64) bool {
	return l.mem.PersistedLoad(l.EntryOff(idx)+entEmpty) == l.FullMark(idx)
}

// PersistedReadEntry reads an entry from the persisted view (durable
// recovery).
func (l *Log) PersistedReadEntry(idx uint64) (code, a0, a1 uint64) {
	off := l.EntryOff(idx)
	return l.mem.PersistedLoad(off + entCode), l.mem.PersistedLoad(off + entA0), l.mem.PersistedLoad(off + entA1)
}
