package nvm

// Event tracing for the exhaustive explorer (internal/explore).
//
// Every memory-system operation announces itself through the system's access
// hook immediately before it charges its sim.Thread.Step — i.e. before the
// scheduler may hand the baton away. Under the simulator's execution model
// the operation's *effect* (the data movement) runs when the announcing
// thread next resumes, so at any scheduling decision point each thread's
// last announced access is exactly the operation it will perform when
// dispatched. That is the co-enabled-transition information DPOR needs, and
// the flush-class announcements delimit the crash-point equivalence classes
// (two crash points with the same set of executed persist effects
// materialize identically).

import "prepuc/internal/sim"

// AccessKind classifies one announced memory-system operation.
type AccessKind uint8

const (
	// AccLoad / AccStore / AccCAS are word accesses on a single line.
	AccLoad AccessKind = iota
	AccStore
	AccCAS
	// AccFlush is an asynchronous Flusher.FlushLine (CLWB): no persist
	// effect of its own, but when Tracked it enrolls the line in the
	// flusher's pending set, changing what a crash can materialize.
	AccFlush
	// AccFlushSync is a synchronous Flusher.FlushLineSync (CLFLUSH): the
	// line is persisted by the effect.
	AccFlushSync
	// AccFence is a Flusher.Fence (SFENCE): the effect persists every
	// pending line of the announcing thread's flusher.
	AccFence
	// AccFlushRegion / AccFlushAllDirty are Memory-level bulk write-backs.
	AccFlushRegion
	AccFlushAllDirty
	// AccWBINVD is the whole-cache write-back.
	AccWBINVD
)

// String names the kind for traces and counterexample dumps.
func (k AccessKind) String() string {
	switch k {
	case AccLoad:
		return "load"
	case AccStore:
		return "store"
	case AccCAS:
		return "cas"
	case AccFlush:
		return "flush"
	case AccFlushSync:
		return "flush-sync"
	case AccFence:
		return "fence"
	case AccFlushRegion:
		return "flush-region"
	case AccFlushAllDirty:
		return "flush-all-dirty"
	case AccWBINVD:
		return "wbinvd"
	default:
		return "unknown"
	}
}

// NoLine is the Line value of whole-memory / whole-machine accesses (fences,
// bulk flushes, WBINVD).
const NoLine = ^uint64(0)

// Access is one announced memory-system operation.
type Access struct {
	// Thread is the announcing thread's scheduler id.
	Thread int
	// Kind classifies the operation.
	Kind AccessKind
	// Mem is the target memory's name ("" for machine-wide AccWBINVD).
	Mem string
	// Line is the target cache line index, or NoLine for bulk operations.
	Line uint64
	// NVM reports whether the target memory is non-volatile.
	NVM bool
	// Tracked is set on AccFlush announcements whose line will enter the
	// pending set (dirty and not already tracked this fence epoch): only
	// tracked flushes change crash materialization.
	Tracked bool
}

// PersistEffect reports whether the access's effect can change the
// machine's crash materialization: the persisted views or the pending
// flush sets. Loads, volatile stores, and untracked flushes cannot.
// NVM stores are persist-relevant only through background write-backs or
// stores to already-pending lines, both of which fire the persist-effect
// hook from inside the effect — so they are not persist effects here.
func (a Access) PersistEffect() bool {
	switch a.Kind {
	case AccFlush:
		return a.Tracked
	case AccFlushSync, AccFence, AccFlushRegion, AccFlushAllDirty, AccWBINVD:
		return true
	default:
		return false
	}
}

// SetAccessHook installs (or with nil removes) the announce-time access
// hook. The hook runs on the announcing thread's goroutine, before the
// operation's cost step — so before the baton can move — and must not
// access the machine. Tracing costs nothing when no hook is installed.
// Hooks are per-machine wiring, not machine state: Clone and Recover do not
// carry them over, each phase installs its own.
func (s *System) SetAccessHook(h func(Access)) { s.accHook = h }

// SetPersistEffectHook installs (or with nil removes) the store-effect
// persist hook: it fires inside a store/CAS *effect* (after the announce,
// before the thread's next announce) whenever that effect changes the
// machine's crash image — the store's 1-in-bgProb background write-back drew
// a persist, or the stored line sits in some flusher's pending set (the
// pending entry persists the line's content as of the crash, so the store
// altered what a crash materializes). Announce-time classification cannot see
// either condition, so the explorer derives its store-originated crash
// branch points from this hook instead of from Access.PersistEffect.
func (s *System) SetPersistEffectHook(h func(thread int)) { s.peHook = h }

func (s *System) announce(a Access) {
	if s.accHook != nil {
		s.accHook(a)
	}
}

func (m *Memory) announce(t *sim.Thread, kind AccessKind, line uint64, tracked bool) {
	if h := m.sys.accHook; h != nil {
		h(Access{
			Thread: t.ID(), Kind: kind, Mem: m.name, Line: line,
			NVM: m.kind == NVM, Tracked: tracked,
		})
	}
}

// PendingLines returns the total number of flushed-but-unfenced lines
// across every flusher: the size of the crash materialization choice a
// fault policy faces right now. Exhaustive explorers use it to size the
// persist-subset enumeration per crash branch.
func (s *System) PendingLines() int {
	n := 0
	for _, f := range s.flushers {
		n += len(f.pending)
	}
	return n
}

// PersistedFingerprint hashes every NVM memory's persisted view (with its
// name and size) into one 64-bit FNV-1a digest: two machines with equal
// fingerprints hold the same crash-surviving state. Memories are visited in
// creation order, which recovery reproduces, so fingerprints are comparable
// across a machine and its clones and recoveries. Each word is hashed as its
// eight big-endian bytes. The walk is O(written pages): a page still aliasing
// the pinned zero page contributes only zero bytes, which FNV-1a's xor leaves
// alone, so its n words hash in one multiply by the prime to the 8n-th power.
func (s *System) PersistedFingerprint() uint64 {
	h := uint64(fnvOffset)
	for _, m := range s.order {
		if m.kind != NVM {
			continue
		}
		for i := 0; i < len(m.name); i++ {
			h = (h ^ uint64(m.name[i])) * fnvPrime
		}
		h *= fnvPrime // the name's terminating zero byte
		h = fnvWord(h, m.words)
		for pi, p := range m.persisted.pages {
			// A short final page holds only the memory's remaining words.
			n := min(pageWords, m.words-uint64(pi)*pageWords)
			if p.zero() {
				h *= fnvPow(8 * n)
				continue
			}
			for _, v := range p.vals[:n] {
				h = fnvWord(h, v)
			}
		}
	}
	return h
}

// 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds v's eight big-endian bytes into the FNV-1a state h.
func fnvWord(h, v uint64) uint64 {
	h = (h ^ v>>56) * fnvPrime
	h = (h ^ v>>48&0xff) * fnvPrime
	h = (h ^ v>>40&0xff) * fnvPrime
	h = (h ^ v>>32&0xff) * fnvPrime
	h = (h ^ v>>24&0xff) * fnvPrime
	h = (h ^ v>>16&0xff) * fnvPrime
	h = (h ^ v>>8&0xff) * fnvPrime
	return (h ^ v&0xff) * fnvPrime
}

// fnvPow is fnvPrime to the n-th power mod 2⁶⁴: what FNV-1a multiplies its
// state by over n zero bytes.
func fnvPow(n uint64) uint64 {
	r, b := uint64(1), uint64(fnvPrime)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r *= b
		}
		b *= b
	}
	return r
}
