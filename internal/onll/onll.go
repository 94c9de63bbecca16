// Package onll implements ONLL ("Order Now, Linearize Later", Cohen,
// Guerraoui and Zablotchi, SPAA '18), the other persistent universal
// construction discussed in the paper's related work (§2.3). It is included
// as an extension baseline: a log-only durable PUC with per-operation
// persistence, contrasting with PREP-UC's checkpoint-based design — most
// visibly in the recovery-time experiment, since ONLL must replay its whole
// history while PREP-UC replays at most one ε window.
//
// Faithful properties:
//
//   - updates are linearized through a global order before being written,
//     together with every not-yet-guaranteed-persistent predecessor (at most
//     n of them, one in-flight per thread), into the invoking thread's
//     per-thread persistent log: one variable-length entry, flushed, and one
//     fence per update — then the operation completes (durable
//     linearizability);
//   - read-only operations perform no flushes and no fences;
//   - recovery takes the union of all per-thread log entries, orders by
//     linearization index, and replays the longest gap-free prefix; every
//     completed operation is below any gap by construction.
//
// Simplifications (documented in DESIGN.md): the lock-free global queue is a
// ticket taken under the object's writer lock (the flush/fence profile —
// the property under evaluation — is unchanged), and per-thread logs are
// sized for the run instead of being truncated by checkpoints.
package onll

import (
	"fmt"
	"sort"

	"prepuc/internal/locks"
	"prepuc/internal/nvm"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Config parameterizes an ONLL instance.
type Config struct {
	Workers int
	// Object is the sequential object; recovery replays the logs into a
	// fresh one, so only its New is used.
	Object uc.ObjectType
	// HeapWords sizes the single volatile object's heap.
	HeapWords uint64
	// LogEntries is each thread's persistent log capacity in entries.
	LogEntries uint64
}

// Control memory layout: the distributed reader–writer lock region starts
// at word 0 (one line per reader slot, so ONLL's flush-free reads also stay
// coherence-quiet), followed by the linearization counter and the per-thread
// in-flight operation slots.
const (
	ctrlLock  = 0 // distributed reader–writer lock region
	slotWords = nvm.WordsPerLine
	slotIndex = 0 // 0 = no pending op
	slotCode  = 1
	slotA0    = 2
	slotA1    = 3
)

// Log entry layout: [0] checksum, [1] count, then count × (index, code,
// a0, a1). Entries are line-aligned; size accommodates n ops.
const (
	entChecksum = 0
	entCount    = 1
	entOps      = 2
	opRecWords  = 4
)

// lineage is generation 0 of ONLL's lineage. Recovery replays the committed
// generation's logs into a fresh generation's logs (one re-logged entry per
// replayed op), so a nested crash mid-replay leaves the new logs holding only
// a prefix: the full source logs stay authoritative until replay completes.
var lineage = uc.NewLineage("onll", "commit")

// ONLL is one instance of the construction.
type ONLL struct {
	cfg       Config
	sys       *nvm.System
	heap      *nvm.Memory
	alloc     *pmem.Allocator
	ds        uc.DataStructure
	ctrl      *nvm.Memory
	lock      locks.DistRWLock
	ticketOff uint64
	slotsOff  uint64
	logs      []*nvm.Memory
	flushers  []*nvm.Flusher
	logPos    []uint64 // next entry slot per thread (volatile bookkeeping)
	entrySize uint64
	lin       uc.Lineage // the generation the instance was built at
}

var _ uc.UC = (*ONLL)(nil)

// entryWords returns the line-rounded entry footprint for n ops.
func entryWords(n int) uint64 {
	w := uint64(entOps + n*opRecWords)
	if rem := w % nvm.WordsPerLine; rem != 0 {
		w += nvm.WordsPerLine - rem
	}
	return w
}

// New builds an ONLL instance inside sys and commits its generation, so a
// crash right after boot recovers the empty object.
func New(t *sim.Thread, sys *nvm.System, cfg Config) (*ONLL, error) {
	o, err := newEngine(t, sys, cfg, lineage)
	if err != nil {
		return nil, err
	}
	o.lin.Commit(t)
	return o, nil
}

// newEngine builds the instance at generation lin without committing it
// (Recover commits only after replay completes).
func newEngine(t *sim.Thread, sys *nvm.System, cfg Config, lin uc.Lineage) (*ONLL, error) {
	if cfg.Workers <= 0 || cfg.Object.New == nil || cfg.HeapWords == 0 {
		return nil, fmt.Errorf("onll: incomplete config")
	}
	if cfg.LogEntries == 0 {
		cfg.LogEntries = 1 << 16
	}
	o := &ONLL{cfg: cfg, sys: sys, lin: lin, entrySize: entryWords(cfg.Workers)}
	o.heap = sys.NewMemory(lin.Name("heap"), nvm.Volatile, nvm.Interleaved, cfg.HeapWords)
	o.alloc = pmem.New(t, o.heap)
	o.ds = cfg.Object.New(t, o.alloc)
	o.ticketOff = ctrlLock + locks.DistRWLockWords(cfg.Workers)
	o.slotsOff = o.ticketOff + nvm.WordsPerLine
	o.ctrl = sys.NewMemory(lin.Name("ctrl"), nvm.Volatile, nvm.Interleaved,
		o.slotsOff+uint64(cfg.Workers)*slotWords)
	o.lock = locks.NewDistRWLock(o.ctrl, ctrlLock, cfg.Workers)
	o.lin.EnsureCommit(sys, nvm.Interleaved)
	o.logPos = make([]uint64, cfg.Workers)
	for tid := 0; tid < cfg.Workers; tid++ {
		o.logs = append(o.logs, sys.NewMemory(lin.Name(fmt.Sprintf("log%d", tid)),
			nvm.NVM, nvm.Interleaved, cfg.LogEntries*o.entrySize))
		o.flushers = append(o.flushers, sys.NewFlusher())
	}
	return o, nil
}

// opRec is one (index, operation) record.
type opRec struct {
	index, code, a0, a1 uint64
}

func checksum(recs []opRec) uint64 {
	h := uint64(0x9E3779B97F4A7C15) ^ uint64(len(recs))
	for _, r := range recs {
		for _, w := range [4]uint64{r.index, r.code, r.a0, r.a1} {
			h ^= w
			h *= 0x100000001B3
		}
	}
	h |= 1 // never zero, so a zeroed entry can't validate
	return h
}

// Execute implements the universal construction interface.
func (o *ONLL) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	t.Step(o.sys.Costs().OpBase)
	if o.ds.IsReadOnly(op.Code) {
		// ONLL's hallmark: reads neither flush nor fence.
		o.lock.ReadLock(t, tid)
		res := o.ds.Execute(t, op.Code, op.A0, op.A1)
		o.lock.ReadUnlock(t, tid)
		return res
	}
	return o.update(t, tid, op)
}

func (o *ONLL) update(t *sim.Thread, tid int, op uc.Op) uint64 {
	// Order now: take the next linearization index and apply, publishing
	// the op as in-flight (not yet guaranteed persistent).
	o.lock.WriteLock(t)
	idx := o.ctrl.Load(t, o.ticketOff) + 1
	o.ctrl.Store(t, o.ticketOff, idx)
	so := o.slotsOff + uint64(tid)*slotWords
	o.ctrl.Store(t, so+slotCode, op.Code)
	o.ctrl.Store(t, so+slotA0, op.A0)
	o.ctrl.Store(t, so+slotA1, op.A1)
	o.ctrl.Store(t, so+slotIndex, idx)
	res := o.ds.Execute(t, op.Code, op.A0, op.A1)
	// Snapshot every in-flight predecessor (≤ one per thread) plus our op.
	recs := make([]opRec, 0, o.cfg.Workers)
	for w := 0; w < o.cfg.Workers; w++ {
		wo := o.slotsOff + uint64(w)*slotWords
		if i := o.ctrl.Load(t, wo+slotIndex); i != 0 && i <= idx {
			recs = append(recs, opRec{
				index: i,
				code:  o.ctrl.Load(t, wo+slotCode),
				a0:    o.ctrl.Load(t, wo+slotA0),
				a1:    o.ctrl.Load(t, wo+slotA1),
			})
		}
	}
	o.lock.WriteUnlock(t)

	// Linearize later: persist the entry, then complete.
	o.appendEntry(t, tid, recs)
	o.ctrl.Store(t, so+slotIndex, 0)
	return res
}

// appendEntry writes one log entry (ops + checksum), flushes its lines and
// fences — the one fence ONLL pays per update.
func (o *ONLL) appendEntry(t *sim.Thread, tid int, recs []opRec) {
	pos := o.logPos[tid]
	if pos >= o.cfg.LogEntries {
		panic(fmt.Sprintf("onll: thread %d exhausted its %d-entry log; size the run accordingly",
			tid, o.cfg.LogEntries))
	}
	o.logPos[tid] = pos + 1
	log := o.logs[tid]
	base := pos * o.entrySize
	for i, r := range recs {
		off := base + entOps + uint64(i)*opRecWords
		log.Store(t, off+0, r.index)
		log.Store(t, off+1, r.code)
		log.Store(t, off+2, r.a0)
		log.Store(t, off+3, r.a1)
	}
	log.Store(t, base+entCount, uint64(len(recs)))
	log.Store(t, base+entChecksum, checksum(recs))
	f := o.flushers[tid]
	used := entryWords(len(recs))
	for line := uint64(0); line < used; line += nvm.WordsPerLine {
		f.FlushLine(t, log, base+line)
	}
	f.Fence(t)
}

// Prefill applies ops directly to the volatile object without logging,
// modelling history that a production ONLL would already have truncated
// into a checkpoint. (The real system bounds its logs with periodic
// checkpoints; this reproduction sizes logs for the measured run instead —
// so prefilled state is not crash-recoverable, which no experiment relies
// on.)
func (o *ONLL) Prefill(t *sim.Thread, ops []uc.Op) {
	for _, op := range ops {
		o.ds.Execute(t, op.Code, op.A0, op.A1)
	}
}

// Recover rebuilds an ONLL instance after a crash: the union of the
// committed generation's valid persisted log entries, replayed in
// linearization order up to the first gap. Each operation is replayed, and so
// re-logged, under the worker whose entry it heads (holds the highest index
// of), or under the first log it appears in when its own entry was torn: no
// log of the new generation holds more entries than the same log of the
// source, so a history that fit the source's logs fits the rebuilt ones.
// Returns the instance and the number of replayed operations. cfg is the
// configuration the crashed lineage was booted with; the commit record flips
// to the rebuilt generation only after replay completes, so Recover killed at
// any event re-runs from the same source.
func Recover(t *sim.Thread, recSys *nvm.System, cfg Config) (*ONLL, uint64, error) {
	src, err := lineage.Source(recSys)
	if err != nil {
		return nil, 0, err
	}
	entrySize := entryWords(cfg.Workers)
	byIndex := map[uint64]opRec{}
	// owner is the worker an index is replayed under: the one whose entry
	// it heads, else the first whose log holds it.
	owner := map[uint64]int{}
	for tid := 0; tid < cfg.Workers; tid++ {
		log := recSys.Memory(src.Name(fmt.Sprintf("log%d", tid)))
		for base := uint64(0); base+entrySize <= log.Words(); base += entrySize {
			count := log.Load(t, base+entCount)
			if count == 0 || count > uint64(cfg.Workers) {
				break // end of this thread's log (or torn final entry)
			}
			recs := make([]opRec, count)
			for i := uint64(0); i < count; i++ {
				off := base + entOps + i*opRecWords
				recs[i] = opRec{
					index: log.Load(t, off+0),
					code:  log.Load(t, off+1),
					a0:    log.Load(t, off+2),
					a1:    log.Load(t, off+3),
				}
			}
			if log.Load(t, base+entChecksum) != checksum(recs) {
				break // torn final entry: its op never completed
			}
			head := recs[0].index
			for _, r := range recs {
				byIndex[r.index] = r
				head = max(head, r.index)
				if _, ok := owner[r.index]; !ok {
					owner[r.index] = tid
				}
			}
			owner[head] = tid
		}
	}
	indexes := make([]uint64, 0, len(byIndex))
	for i := range byIndex {
		indexes = append(indexes, i)
	}
	sort.Slice(indexes, func(a, b int) bool { return indexes[a] < indexes[b] })

	o, err := newEngine(t, recSys, cfg, src.Next(recSys))
	if err != nil {
		return nil, 0, err
	}
	var replayed uint64
	next := uint64(1)
	for _, i := range indexes {
		if i != next {
			break // gap: everything beyond was in flight, never completed
		}
		r := byIndex[i]
		o.update(t, owner[i], uc.Op{Code: r.code, A0: r.a0, A1: r.a1})
		replayed++
		next++
	}
	o.lin.Commit(t)
	return o, replayed, nil
}

// DumpState returns the object's state as the flat (code, a0, a1) triples
// its Dump emits. Tests compare dumps across recovery attempts for
// idempotence.
func (o *ONLL) DumpState(t *sim.Thread) []uint64 {
	var out []uint64
	o.ds.Dump(t, func(code, a0, a1 uint64) {
		out = append(out, code, a0, a1)
	})
	return out
}
