package core

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// This file implements detectable execution for PREP-UC: per-worker
// persistent operation descriptors in the style of Memento's per-op
// recoverable checkpoints and Sela & Petrank's detectable constructions.
//
// A descriptor is one cache line recording (invocation id, log position,
// result) for one update operation a combiner serviced on a worker's
// behalf. The combiner writes and — in Durable mode — flushes the
// descriptor, then fences, *before* it sets the batch's full marks. That
// ordering is the whole protocol: an operation's effect can become visible
// to any other combiner (and hence to a persisted completedTail) only after
// its descriptor is durable, so recovery can classify every invocation id
// with certainty:
//
//   - descriptor present with logpos below the recovery horizon
//     (persisted completedTail in Durable mode, the stable replica's
//     checkpointed tail in Buffered mode) → the operation committed, and
//     the descriptor carries its result;
//   - otherwise → the operation never applied: its effect is not in the
//     recovered state and the client may safely resubmit.
//
// Torn descriptors cannot lie: the NVM substrate materializes crashes per
// cache line, a descriptor is exactly one line, and a descriptor whose line
// did not persist is indistinguishable from an absent one — which recovery
// answers "never applied", the safe verdict, because the fence-before-full
// ordering guarantees no full mark (and so no committed effect) can exist
// for an operation whose descriptor is not durable. A line can also persist
// in the middle of a rewrite — the substrate's background eviction may write
// it back after any store — so a record is published last: logpos, result
// and flags first, the invocation id after them. Every store prefix then
// reads either as the slot's previous occupant, whose verdict nobody asks
// for any more (see the slot discipline), or as the complete new record;
// never as the new id beside the old occupant's fields. See DESIGN.md §11.
//
// Slot discipline: worker w owns DescSlots slots used round-robin. A slot
// is reused only after DescSlots further operations of the same worker,
// and a worker (or the ring consumer submitting on its behalf) has at most
// one batch of at most MaxBatch = DescSlots operations outstanding, so a
// live in-flight descriptor is never overwritten.

// DescSlots is the number of descriptor slots per worker. It equals
// MaxBatch so one ExecuteBatch worth of in-flight operations — the largest
// outstanding window a single worker tid can have — always fits without
// overwriting an unacknowledged descriptor.
const DescSlots = MaxBatch

// Descriptor record layout (word offsets within the one-line record).
const (
	descWords  = nvm.WordsPerLine
	descFlags  = 0 // descEmpty / descLive / descResolved
	descInvid  = 1
	descLogPos = 2
	descResult = 3
)

// Descriptor flag values.
const (
	descEmpty    = 0 // slot never written this generation
	descLive     = 1 // written by a combiner; committed iff logpos < horizon
	descResolved = 2 // carried forward by recovery; committed unconditionally
)

// descTable is the per-generation descriptor region: Workers contiguous
// per-worker blocks of DescSlots one-line records.
type descTable struct {
	mem *nvm.Memory
	// seq is the host-side next-slot cursor per worker (slot = seq mod
	// DescSlots). It is accessed only while holding the combiner lock of
	// the worker's node, which serializes all descriptor writers for that
	// worker.
	seq []uint64
}

// descTableWords is the memory size for a table covering workers workers.
func descTableWords(workers int) uint64 {
	return uint64(workers) * DescSlots * descWords
}

func newDescTable(mem *nvm.Memory, workers int) *descTable {
	return &descTable{mem: mem, seq: make([]uint64, workers)}
}

// off returns the word offset of worker w's slot.
func (d *descTable) off(w int, slot uint64) uint64 {
	return (uint64(w)*DescSlots + slot%DescSlots) * descWords
}

// write records (invid, logpos, result) in worker w's next slot, the id
// last, and returns the record's word offset so a durable-mode caller can
// flush its line. The caller holds the combiner lock of w's node.
func (d *descTable) write(t *sim.Thread, w int, invid, logpos, result uint64) uint64 {
	off := d.off(w, d.seq[w])
	d.seq[w]++
	d.mem.Store(t, off+descLogPos, logpos)
	d.mem.Store(t, off+descResult, result)
	d.mem.Store(t, off+descFlags, descLive)
	d.mem.Store(t, off+descInvid, invid)
	return off
}

// carry records an already-resolved committed operation in worker w's next
// slot — recovery's carry-forward, making the verdict re-queryable if the
// new generation itself crashes before the client learned it.
func (d *descTable) carry(t *sim.Thread, w int, invid, result uint64) {
	off := d.off(w, d.seq[w])
	d.seq[w]++
	d.mem.Store(t, off+descLogPos, ^uint64(0))
	d.mem.Store(t, off+descResult, result)
	d.mem.Store(t, off+descFlags, descResolved)
	d.mem.Store(t, off+descInvid, invid)
}

// scanDescriptors reads the persisted view of a crashed generation's
// descriptor table and classifies every record against horizon: the verdict
// map holds invid → result for every committed operation, keyed per worker
// in byWorker so carry-forward can preserve worker attribution. Absence
// from the map is itself definite: the operation never applied.
func scanDescriptors(mem *nvm.Memory, workers int, horizon uint64) (resolved map[uint64]uint64, byWorker [][][2]uint64) {
	resolved = map[uint64]uint64{}
	byWorker = make([][][2]uint64, workers)
	for w := 0; w < workers; w++ {
		base := uint64(w) * DescSlots * descWords
		for s := uint64(0); s < DescSlots; s++ {
			off := base + s*descWords
			invid := mem.PersistedLoad(off + descInvid)
			if invid == 0 {
				continue
			}
			committed := false
			switch mem.PersistedLoad(off + descFlags) {
			case descLive:
				committed = mem.PersistedLoad(off+descLogPos) < horizon
			case descResolved:
				committed = true
			}
			if committed {
				resolved[invid] = mem.PersistedLoad(off + descResult)
				byWorker[w] = append(byWorker[w], [2]uint64{invid, mem.PersistedLoad(off + descResult)})
			}
		}
	}
	return resolved, byWorker
}
