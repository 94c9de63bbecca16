// Package nvm simulates byte-addressable non-volatile memory with a volatile
// cache in front of it, as found on the paper's evaluation machine (Intel
// Optane DCPMM behind volatile CPU caches).
//
// A Memory is a word-addressable region (1 word = 8 bytes, 1 cache line = 8
// words). Every Memory has a current view, playing the role of the cache
// hierarchy plus DRAM, and — for NVM-kind memories — a persisted view,
// playing the role of the 3D-XPoint media. Only the persisted view survives
// a crash.
//
// Data moves from the current view to the persisted view through:
//
//   - Flusher.FlushLine + Flusher.Fence  (CLWB/CLFLUSHOPT … SFENCE)
//   - Flusher.FlushLineSync              (CLFLUSH)
//   - System.WBINVD                      (whole-cache write-back)
//   - background flushes: every store to an NVM memory may, with small
//     probability, be written back immediately by the cache-coherence
//     protocol — without the program's knowledge. This reproduces the §4.1
//     hazard that forces PREP-UC to keep two dedicated persistent replicas.
//
// Asynchronous flushes that were issued but not yet fenced when the crash
// hits are persisted with 50% probability each, modelling their undefined
// ordering on real hardware.
//
// All operations charge virtual time through the sim scheduler, which also
// guarantees mutual exclusion, so the package needs no atomics of its own.
package nvm

import (
	"fmt"
	"slices"
	"strings"

	"prepuc/internal/fault"
	"prepuc/internal/metrics"
	"prepuc/internal/sim"
)

// WordsPerLine is the number of 8-byte words in a simulated cache line.
const WordsPerLine = 8

// Kind distinguishes volatile (DRAM-backed) from non-volatile memories.
type Kind int

const (
	// Volatile memory is lost entirely at a crash. Flush operations on it
	// are a programming error and panic.
	Volatile Kind = iota
	// NVM memory keeps its persisted view across a crash.
	NVM
)

func (k Kind) String() string {
	if k == NVM {
		return "nvm"
	}
	return "volatile"
}

// Interleaved is the home value for memories striped across all NUMA nodes
// (such as the shared operation log). Home placement is descriptive
// metadata: access costs are driven by the per-line coherence state (who
// wrote the line last, and from which node), which is what dominates on
// real NUMA machines for the hot lines these algorithms fight over.
const Interleaved = -1

// Memory is one simulated region. Offsets are word indices. All views live
// in copy-on-write slabs (see cow.go) so cloning and crash recovery share
// pages with the source machine instead of copying the region.
type Memory struct {
	name      string
	kind      Kind
	home      int // NUMA node, or Interleaved (metadata; see access costs)
	sys       *System
	holders   []*sim.Thread // Hold's holders, empty while m is shared; every access reads it, as kind and sys
	writer    bool          // the one holder writes; else every holder reads
	mirrored  bool          // m is a Mirror's source or destination (mir); in writer's padding, so no field moves
	words     uint64
	data      slab[uint64] // current (cache/DRAM) view
	persisted slab[uint64] // NVM view; absent for volatile memories
	// Dirty-line tracking (NVM only): dstate holds per-line lineDirty and
	// lineListed bits; dirtyList holds every dirty line, each listed line
	// exactly once (the listed bit is membership). Individual write-backs
	// clear only the dirty bit — their list entries go stale, and the next
	// sweep skips them or compactDirty drops them — so the list is at most a
	// small multiple of the peak count of dirty lines, and WBINVD,
	// FlushAllDirty and DirtyLines are O(that), never O(region lines).
	dstate    slab[uint8]
	dirtyList []uint64
	// MSI-style per-line ownership for coherence cost accounting: the
	// thread id of the last writer, or ownerShared after a foreign load
	// downgraded the line. Mutated-elsewhere lines charge a transfer on
	// access; this is what makes contended locks expensive and per-node
	// replicas cheap — the effect node replication exploits.
	owner     slab[int32]
	ownerNode slab[int32]
	bgState   uint64 // xorshift state for background-flush draws
	// watch lists the parked waiters (sim.Parker) watching lines of this
	// memory; a Store or CAS to one of those lines wakes them. Host-side,
	// empty whenever no waiter is parked.
	watch []watcher
	mir   *mirror // the mirror m belongs to while mirrored; only mirror code reads it
}

// watcher is one thread watching one line.
type watcher struct {
	line uint64
	t    *sim.Thread
}

// ownerShared marks a line readable by everyone without transfer cost. It is
// the zero value so fresh owner slabs need no initialization pass; owned
// lines store thread id + 1 (see ownerOf).
const ownerShared = int32(0)

// ownerOf encodes thread id t as a non-shared owner value.
func ownerOf(t int) int32 { return int32(t) + 1 }

// Per-line dirty-state bits.
const (
	lineDirty  = 1 << 0 // current view ahead of persisted view
	lineListed = 1 << 1 // line has an entry in dirtyList
)

// debugFullScan switches DirtyLines and the dirty sweeps back to the
// reference full-bitmap scan in index order. Test-only: the equivalence
// suite runs every workload both ways and requires identical persisted
// views, metrics and virtual clocks.
var debugFullScan = false

// System owns a set of memories and flushers, the latency model, and the
// crash machinery. One System models one machine between two crashes.
type System struct {
	sch      *sim.Scheduler
	costs    sim.Costs
	mems     map[string]*Memory
	order    []*Memory
	flushers []*Flusher
	bgProb   uint64 // background flush: 1-in-bgProb stores; 0 disables
	rngState uint64
	// policy decides the fate of flushed-but-unfenced lines at a crash; nil
	// selects the built-in fair coin (see Recover).
	policy fault.Policy
	// elide enables FliT-style flush elision: a flush request whose target
	// line is clean charges only Costs.FlushCheck and skips the write-back.
	// Elision never changes which lines enter the pending sets — clean lines
	// are excluded in both modes (a CLWB of a clean line writes back
	// nothing, and a store after it is NOT covered by it) — so crash
	// materialization is identical either way; the knob only switches the
	// cost model and the FlushAsync/FlushSync vs FlushesElided accounting.
	elide bool
	// met is the machine-wide metrics registry; memory, flusher, lock, log
	// and engine events all record into it. Increments are host-side only
	// and cost no virtual time (see package metrics).
	met *metrics.Registry
	// accHook / peHook are the exhaustive explorer's event taps (see
	// trace.go). Both nil outside exploration; neither costs virtual time.
	accHook func(Access)
	peHook  func(thread int)
}

// Config parameterizes a System.
type Config struct {
	Costs sim.Costs
	// BGFlushOneIn enables background flushes on NVM stores with probability
	// 1/BGFlushOneIn. Zero disables them.
	BGFlushOneIn uint64
	// Seed drives crash-time persistence coin flips and background flushes.
	Seed uint64
}

// NewSystem creates a machine attached to sch (nil: none until a phase runs).
func NewSystem(sch *sim.Scheduler, cfg Config) *System {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x1234_5678_9ABC_DEF1
	}
	return &System{
		sch:      sch,
		costs:    cfg.Costs,
		mems:     make(map[string]*Memory),
		bgProb:   cfg.BGFlushOneIn,
		rngState: seed,
		elide:    true,
		met:      metrics.NewRegistry(),
	}
}

// SetFlushElision switches FliT-style clean-line flush elision on (the
// default) or off. Off restores the reference cost model where every flush
// request charges a full FlushLine/FlushSync; the persisted views are
// identical in both modes (DESIGN.md §12). The ablation-flushelide cell turns
// it off before it builds its engine; the setting is carried through Recover
// and Clone.
func (s *System) SetFlushElision(on bool) { s.elide = on }

// SetFaultPolicy replaces the crash-time persistence adversary. A nil policy
// restores the default fair coin. The policy applies to this system's next
// Recover and is carried into the recovered system.
func (s *System) SetFaultPolicy(p fault.Policy) { s.policy = p }

// SetBGFlushOneIn overrides the background write-back rate (one store in n
// leaks its line to the persisted view; 0 disables). Crash harnesses raise
// the rate for a recovery phase to stress write-back hazards that the
// workload's rate would hit only rarely.
func (s *System) SetBGFlushOneIn(n uint64) { s.bgProb = n }

// Scheduler returns the sim scheduler this system runs on.
func (s *System) Scheduler() *sim.Scheduler { return s.sch }

// SetScheduler rebinds the system to a new scheduler. Recovery runs in
// phases (boot, then workers), each on its own scheduler; the memories
// themselves are scheduler-agnostic but Crash must freeze the active one.
func (s *System) SetScheduler(sch *sim.Scheduler) { s.sch = sch }

// Costs returns the latency model.
func (s *System) Costs() sim.Costs { return s.costs }

// Metrics returns the machine-wide metrics registry.
func (s *System) Metrics() *metrics.Registry { return s.met }

// NewMemory allocates a region of the given size in words. Names must be
// unique within a System; NVM memories are recovered by name after a crash.
func (s *System) NewMemory(name string, kind Kind, home int, words uint64) *Memory {
	if _, dup := s.mems[name]; dup {
		panic(fmt.Sprintf("nvm: duplicate memory name %q", name))
	}
	if words%WordsPerLine != 0 {
		words += WordsPerLine - words%WordsPerLine
	}
	lines := words / WordsPerLine
	m := &Memory{
		name:      name,
		kind:      kind,
		home:      home,
		sys:       s,
		words:     words,
		data:      newZeroSlab(zeroWords, words, &s.met.PagesCopied),
		owner:     newZeroSlab(zeroOwners, lines, &s.met.PagesCopied),
		ownerNode: newZeroSlab(zeroOwners, lines, &s.met.PagesCopied),
		bgState:   s.nextRand() | 1,
	}
	if kind == NVM {
		m.persisted = newZeroSlab(zeroWords, words, &s.met.PagesCopied)
		m.dstate = newZeroSlab(zeroStates, lines, &s.met.PagesCopied)
	}
	s.mems[name] = m
	s.order = append(s.order, m)
	return m
}

// Memory looks up a region by name (used by recovery code).
func (s *System) Memory(name string) *Memory {
	m, ok := s.mems[name]
	if !ok {
		panic(fmt.Sprintf("nvm: no memory named %q", name))
	}
	return m
}

// HasMemory reports whether a region with this name exists.
func (s *System) HasMemory(name string) bool {
	_, ok := s.mems[name]
	return ok
}

// HasMemoryPrefix reports whether any region's name starts with prefix.
func (s *System) HasMemoryPrefix(prefix string) bool {
	return slices.ContainsFunc(s.order, func(m *Memory) bool { return strings.HasPrefix(m.name, prefix) })
}

func (s *System) nextRand() uint64 {
	x := s.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rngState = x
	return x
}

// Name returns the region's name.
func (m *Memory) Name() string { return m.name }

// Words returns the region size in words.
func (m *Memory) Words() uint64 { return m.words }

// Metrics returns the owning system's metrics registry; packages that only
// hold a Memory (oplog, locks) record their events through it.
func (m *Memory) Metrics() *metrics.Registry { return m.sys.met }

// transferCost prices acquiring a line currently owned by another thread:
// an intra-node cache-to-cache transfer or a cross-socket one.
func (m *Memory) transferCost(t *sim.Thread, line uint64) uint64 {
	if int(m.ownerNode.load(line)) == t.Node() {
		m.sys.met.CoherenceLocal++
		return m.sys.costs.CoherenceLocal
	}
	m.sys.met.CoherenceRemote++
	return m.sys.costs.CoherenceRemote
}

// basePrice is what a load, or a store or CAS if store, of a line costs
// where it moves no ownership: loadCost and storeCost add the rest.
func (m *Memory) basePrice(store bool) uint64 {
	cost := m.sys.costs.LocalAccess
	switch {
	case m.kind != NVM:
	case store:
		cost += m.sys.costs.NVMStoreExtra
	default:
		cost += m.sys.costs.NVMLoadExtra
	}
	return cost
}

// loadCost prices a load of the line from thread t and downgrades foreign
// exclusively-owned lines to shared (MSI's M→S on a remote read).
func (m *Memory) loadCost(t *sim.Thread, line uint64) uint64 {
	cost := m.basePrice(false)
	if m.ownedElsewhere(t, line) {
		cost += m.transferCost(t, line)
		m.owner.store(line, ownerShared)
	}
	return cost
}

// ownedElsewhere reports whether another thread holds the line exclusively,
// so that t's load of it pays a transfer and downgrades it to shared.
func (m *Memory) ownedElsewhere(t *sim.Thread, line uint64) bool {
	own := m.owner.load(line)
	return own != ownerShared && own != ownerOf(t.ID())
}

// storeCost prices a store (or CAS) and takes exclusive ownership: stores to
// shared lines pay an invalidation, stores to foreign-owned lines a
// transfer (MSI's S/M→M elsewhere → M here).
func (m *Memory) storeCost(t *sim.Thread, line uint64) uint64 {
	cost := m.basePrice(true)
	switch own := m.owner.load(line); {
	case own == ownerOf(t.ID()):
		// already exclusive; ownership state is already exactly what the
		// stores below would write, so skip them (a same-owner store must
		// not privatize shared COW pages)
		return cost
	case own == ownerShared:
		cost += m.sys.costs.CoherenceLocal // invalidate sharers
		m.sys.met.CoherenceLocal++
	default:
		cost += m.transferCost(t, line)
	}
	m.owner.store(line, ownerOf(t.ID()))
	m.ownerNode.store(line, int32(t.Node()))
	return cost
}

// Hold declares that t holds m until Release(t): alone if write, else among
// other readers. A writer's Loads, Stores and CASes, and a reader's Loads of
// lines that are shared or its own, charge their cost and event without a
// dispatch decision (sim.Thread.Charge), except where a skipped decision
// would show: under an access or persist-effect hook, and wherever Charge
// refuses. A reader's load of a line owned elsewhere settles first and steps,
// because its Begin half moves the line's owner and who pays that transfer
// depends on the order. Every other effect of a holder settles first
// (sim.Thread.Settle), and so does Release, so that the next thread to touch
// m finds it as the definition schedule leaves it.
//
// Anything else is a bug panic naming m, the offender and a holder if m has
// one: a non-holder's access, flush or write-back; a Store, CAS, flush or
// write-back of a reader-held memory; a Watch of a held one; a hold beside a
// writer, a write hold beside readers, a second hold by one thread or a hold
// of a watched memory; and a release by a thread that holds nothing. Clone and Recover never carry a hold over; a crash ends it
// with the machine. Mirror is a write hold with destinations attached, and
// Release ends it too.
func (m *Memory) Hold(t *sim.Thread, write bool) {
	switch {
	case m.writer || write && len(m.holders) != 0 || m.holds(t):
		m.foreign(t, "held")
	case len(m.watch) != 0:
		panic(fmt.Sprintf("nvm: %s has watchers and cannot be held by thread %q", m.name, t.Name()))
	}
	m.holders = append(m.holders, t)
	m.writer = write
}

// Release ends t's hold on m, which settles t.
func (m *Memory) Release(t *sim.Thread) {
	if !m.holds(t) {
		panic(fmt.Sprintf("nvm: thread %q released %s, which it does not hold", t.Name(), m.name))
	}
	var mr *mirror
	if m.mirrored {
		mr = m.mir
		mr.detach(t, m)
	}
	t.Settle()
	m.holders = slices.DeleteFunc(m.holders, func(h *sim.Thread) bool { return h == t })
	m.writer = false
	if mr != nil && mr.cost != 0 {
		t.Step(mr.cost)
	}
}

func (m *Memory) holds(t *sim.Thread) bool { return slices.Contains(m.holders, t) }

// gated reports whether an access of t to m leaves the shared path: m is
// held, or t charged ahead and must settle first. It is the shared path's one
// test, two loads of fields the access reads anyway.
func (m *Memory) gated(t *sim.Thread) bool { return len(m.holders) != 0 || t.Ahead() }

// gate is how a gated access proceeds past enter.
type gate uint8

const (
	stepGate   gate = iota // t has settled; the access Steps
	chargeGate             // the access charges (charge)
	mirrorGate             // the access is a Mirror's, which applies it (mirror.go)
)

// enter is the gate of a gated access of t to line, a Store or CAS if store.
// Where the access may not charge, t settles first. Only a holder's access
// passes a held memory's gate, and a mirror's holder's only to the source.
func (m *Memory) enter(t *sim.Thread, line uint64, store bool) gate {
	switch {
	case len(m.holders) == 0:
		t.Settle()
		return stepGate
	case m.writer && m.holders[0] == t:
		if m.mirrored {
			return m.mir.enter(t, m)
		}
		return chargeGate
	case m.writer || store || !m.holds(t):
		m.foreign(t, "accessed")
	case m.ownedElsewhere(t, line):
		t.Settle()
		return stepGate
	}
	return chargeGate
}

// settle is the gate of a flush or write-back of m by t, an effect a crash
// can see: it passes where a store would, and t settles even where a store
// would charge.
func (m *Memory) settle(t *sim.Thread) {
	switch m.enter(t, NoLine, true) {
	case chargeGate:
		t.Settle()
	case mirrorGate:
		m.foreign(t, "wrote back")
	}
}

// foreign panics: t's effect what on the held memory m is refused.
func (m *Memory) foreign(t *sim.Thread, what string) {
	panic(fmt.Sprintf("nvm: thread %q %s %s, %s", t.Name(), what, m.name, m.held()))
}

// held says how m is held, and by whom, for a refusal.
func (m *Memory) held() string {
	by := fmt.Sprintf("thread %q", m.holders[0].Name())
	switch {
	case m.mirrored && m.mir.src == m:
		return "mirrored to " + m.mir.names() + " by " + by
	case m.mirrored:
		return "mirrored from " + m.mir.src.name + " by " + by
	case m.writer:
		return "private to " + by
	}
	return "frozen under " + by
}

// charge is the Step of an access the gate let charge: a Charge where no hook
// must see a dispatch decision and sim grants it, else the Step.
func (m *Memory) charge(t *sim.Thread, cost uint64) {
	if m.sys.accHook != nil || m.sys.peHook != nil || !t.Charge(cost) {
		t.Step(cost)
	}
}

// Load reads the word at off: LoadBegin, the Step it prices, LoadEnd.
func (m *Memory) Load(t *sim.Thread, off uint64) uint64 {
	if m.gated(t) {
		switch m.enter(t, off/WordsPerLine, false) {
		case chargeGate:
			m.charge(t, m.loadBegin(t, off))
		case mirrorGate:
			m.mir.load(t, off)
		default:
			t.Step(m.loadBegin(t, off))
		}
	} else {
		t.Step(m.loadBegin(t, off))
	}
	return m.LoadEnd(off)
}

// LoadBegin is Load's pre-Step half: it announces the load and prices it,
// which is where MSI ownership moves. A poll segment (sim.Thread.Await)
// returns this cost for its Step and reads the word with LoadEnd in the
// next segment, so a poller's loads are Loads to every observer.
func (m *Memory) LoadBegin(t *sim.Thread, off uint64) uint64 {
	if m.gated(t) && m.enter(t, off/WordsPerLine, false) == mirrorGate {
		m.foreign(t, "took LoadBegin on")
	}
	return m.loadBegin(t, off)
}

func (m *Memory) loadBegin(t *sim.Thread, off uint64) uint64 {
	line := off / WordsPerLine
	m.announce(t, AccLoad, line, false)
	return m.loadCost(t, line)
}

// LoadEnd is Load's post-Step half: it counts the load and reads the word.
func (m *Memory) LoadEnd(off uint64) uint64 {
	m.sys.met.Loads++
	return m.data.load(off)
}

// Watch is a poller's parking check (sim.Parker). It reports whether t's
// next loads of the word at off are all alike — each costs the base price and
// moves no ownership, because the line is shared or t's own and no access
// hook would announce them — and the word's current value, read without a
// load. When they are, t now watches the line: the next Store or CAS to it
// wakes t (sim.Scheduler.Wake) before each of its halves. Unwatch ends it.
func (m *Memory) Watch(t *sim.Thread, off uint64) (v uint64, ok bool) {
	if len(m.holders) != 0 {
		m.foreign(t, "watched")
	}
	line := off / WordsPerLine
	if m.sys.accHook != nil || m.ownedElsewhere(t, line) {
		return 0, false
	}
	m.watch = append(m.watch, watcher{line, t})
	return m.data.load(off), true
}

// Unwatch ends every watch t holds on lines of m.
func (m *Memory) Unwatch(t *sim.Thread) {
	m.watch = slices.DeleteFunc(m.watch, func(w watcher) bool { return w.t == t })
}

// wake wakes every thread watching line. A Store or CAS calls it before both
// of its halves: the pre-Step ownership change and the post-Step write. A
// waiter may park between the two — its own load made the announced line
// shared again — so watching one half alone would miss the write.
func (m *Memory) wake(line uint64) {
	if len(m.watch) != 0 {
		m.wakeLine(line)
	}
}

func (m *Memory) wakeLine(line uint64) {
	for i := 0; i < len(m.watch); {
		w := m.watch[i]
		if w.line != line {
			i++
			continue
		}
		m.watch = slices.Delete(m.watch, i, i+1)
		// The waiter's Unpark drops its other watches, here and elsewhere.
		w.t.Scheduler().Wake(w.t)
		i = 0
	}
}

// markDirty sets the line's dirty bit and enrolls it in the dirty list if it
// is not listed yet.
func (m *Memory) markDirty(line uint64) {
	st := m.dstate.load(line)
	if st&lineDirty != 0 {
		return
	}
	if st&lineListed == 0 {
		if len(m.dirtyList) == cap(m.dirtyList) {
			m.compactDirty()
		}
		m.dirtyList = append(m.dirtyList, line)
	}
	m.dstate.store(line, lineDirty|lineListed)
}

// compactDirty drops the dirty list's stale entries, those whose line was
// written back since it was listed, and clears their listed bits, so that
// the list is as long as the lines dirty now and not as the lines dirtied
// since the last sweep (in durable use no sweep ever runs). markDirty calls
// it only when an append would grow the list, and the append then grows it
// only if at least half of it is still live, so enrolment stays amortized
// O(1). An entry whose dstate page is shared with another machine stays:
// clearing its bit would privatize the page, and pages_copied would count a
// copy no store asked for. The kept entries keep their order, though no
// sweep depends on it (DESIGN.md §9).
func (m *Memory) compactDirty() {
	kept := m.dirtyList[:0]
	for _, line := range m.dirtyList {
		if m.dstate.load(line)&lineDirty != 0 || !m.dstate.owned(line) {
			kept = append(kept, line)
			continue
		}
		m.dstate.store(line, 0)
	}
	m.dirtyList = kept
	if 2*len(kept) < cap(kept) {
		return
	}
	m.dirtyList = slices.Grow(kept, len(kept)+1)
}

// Store writes v to the word at off: StoreBegin, the Step it prices,
// StoreEnd. For NVM memories the store dirties the containing line and may
// trigger a background write-back.
func (m *Memory) Store(t *sim.Thread, off uint64, v uint64) {
	if m.gated(t) {
		switch m.enter(t, off/WordsPerLine, true) {
		case chargeGate:
			m.charge(t, m.storeBegin(t, off, AccStore))
		case mirrorGate:
			m.mir.store(t, off, v)
		default:
			t.Step(m.storeBegin(t, off, AccStore))
		}
	} else {
		t.Step(m.storeBegin(t, off, AccStore))
	}
	m.StoreEnd(t, off, v)
}

// linePending reports whether the line sits in some flusher's pending set. A
// store to such a line is persist-relevant even without a background
// write-back: the pending entry persists the line's content as of the crash,
// not as of the flush, so the store changes what a crash materializes. Only
// consulted when the explorer's persist-effect hook is installed.
func (m *Memory) linePending(line uint64) bool {
	p := pendingFlush{m, line}
	for _, f := range m.sys.flushers {
		if f.has(p) {
			return true
		}
	}
	return false
}

// StoreBegin is Store's pre-Step half: it wakes the line's watchers,
// announces the store and prices it, which is where MSI ownership moves. A
// poll segment (sim.Thread.Await) returns this cost for its Step and writes
// with StoreEnd in the next segment, so a poller's stores are Stores to every
// observer.
func (m *Memory) StoreBegin(t *sim.Thread, off uint64) uint64 {
	if m.gated(t) && m.enter(t, off/WordsPerLine, true) == mirrorGate {
		m.foreign(t, "took StoreBegin on")
	}
	return m.storeBegin(t, off, AccStore)
}

// storeBegin is the pre-Step half of a Store or a CAS (kind).
func (m *Memory) storeBegin(t *sim.Thread, off uint64, kind AccessKind) uint64 {
	line := off / WordsPerLine
	m.wake(line)
	m.announce(t, kind, line, false)
	return m.storeCost(t, line)
}

// StoreEnd is Store's post-Step half: it wakes the line's watchers again,
// counts the store and writes v.
func (m *Memory) StoreEnd(t *sim.Thread, off uint64, v uint64) {
	line := off / WordsPerLine
	m.wake(line)
	m.sys.met.Stores++
	m.data.store(off, v)
	m.written(t, line)
}

// CASBegin is CAS's pre-Step half, as StoreBegin is Store's.
func (m *Memory) CASBegin(t *sim.Thread, off uint64) uint64 {
	if m.gated(t) && m.enter(t, off/WordsPerLine, true) == mirrorGate {
		m.foreign(t, "took CASBegin on")
	}
	return m.storeBegin(t, off, AccCAS)
}

// CASEnd is CAS's post-Step half: it wakes the line's watchers again, counts
// the CAS and swaps in new if the word still holds old.
func (m *Memory) CASEnd(t *sim.Thread, off, old, new uint64) bool {
	line := off / WordsPerLine
	m.wake(line)
	m.sys.met.CASes++
	if m.data.load(off) != old {
		return false
	}
	m.data.store(off, new)
	m.written(t, line)
	return true
}

// written is the one NVM bookkeeping after a write to line, shared by
// StoreEnd and CASEnd: dirty the line, draw a background write-back, and tell
// the persist-effect hook when the write changed what a crash materializes.
func (m *Memory) written(t *sim.Thread, line uint64) {
	if m.kind != NVM {
		return
	}
	m.markDirty(line)
	bg := m.sys.bgProb != 0 && m.nextBG()%m.sys.bgProb == 0
	if bg {
		m.persistLine(line)
		m.sys.met.BGFlushes++
	}
	if h := m.sys.peHook; h != nil && (bg || m.linePending(line)) {
		h(t.ID())
	}
}

// CAS atomically compares and swaps the word at off: CASBegin, the Step it
// prices, CASEnd. Failed CASes still acquire the line exclusively, as on real
// hardware.
func (m *Memory) CAS(t *sim.Thread, off, old, new uint64) bool {
	if m.gated(t) {
		switch m.enter(t, off/WordsPerLine, true) {
		case chargeGate:
			m.charge(t, m.storeBegin(t, off, AccCAS))
		case mirrorGate:
			m.mir.cas(t, off, old, new)
		default:
			t.Step(m.storeBegin(t, off, AccCAS))
		}
	} else {
		t.Step(m.storeBegin(t, off, AccCAS))
	}
	return m.CASEnd(t, off, old, new)
}

func (m *Memory) nextBG() uint64 {
	x := m.bgState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.bgState = x
	return x
}

// copyLine copies one line from the current view to the persisted view and
// bumps the write-back counters, leaving dirty state to the caller.
func (m *Memory) copyLine(line uint64) {
	base := line * WordsPerLine
	copy(m.persisted.wline(base, WordsPerLine), m.data.line(base, WordsPerLine))
	m.sys.met.LinesWrittenBack++
}

// persistLine copies one line from the current view to the persisted view.
// The line's dirty-list entry (if any) is left in place, for the next sweep
// to skip or compactDirty to drop.
func (m *Memory) persistLine(line uint64) {
	if m.kind != NVM {
		panic("nvm: persistLine on volatile memory " + m.name)
	}
	m.copyLine(line)
	if st := m.dstate.load(line); st&lineDirty != 0 {
		m.dstate.store(line, st&^uint8(lineDirty))
	}
}

// PersistedLoad reads the persisted view directly. Only recovery code and
// tests may use it; live algorithm code must go through Load.
func (m *Memory) PersistedLoad(off uint64) uint64 {
	if m.kind != NVM {
		panic("nvm: PersistedLoad on volatile memory " + m.name)
	}
	return m.persisted.load(off)
}

// DirtyLines returns the number of lines modified since their last
// write-back (NVM memories only). The dirty list holds every candidate, so
// the count walks only the list; entries whose line was individually written
// back since it was listed are stale and skipped.
func (m *Memory) DirtyLines() uint64 {
	var n uint64
	if debugFullScan {
		for line := uint64(0); line < m.words/WordsPerLine; line++ {
			if m.dstate.load(line)&lineDirty != 0 {
				n++
			}
		}
		return n
	}
	for _, line := range m.dirtyList {
		if m.dstate.load(line)&lineDirty != 0 {
			n++
		}
	}
	return n
}

// sweepDirty writes back every dirty line, calling onLine per line written,
// and resets the dirty list: after a sweep every line's dirty state is zero
// and the list is empty. List order differs from index order, but per-line
// write-backs are independent and draw no randomness, so the resulting
// machine state is identical either way (the equivalence tests pin this).
func (m *Memory) sweepDirty(onLine func()) {
	if debugFullScan {
		for line := uint64(0); line < m.words/WordsPerLine; line++ {
			st := m.dstate.load(line)
			if st&lineDirty != 0 {
				m.copyLine(line)
				if onLine != nil {
					onLine()
				}
			}
			if st != 0 {
				m.dstate.store(line, 0)
			}
		}
		m.dirtyList = m.dirtyList[:0]
		return
	}
	for _, line := range m.dirtyList {
		if m.dstate.load(line)&lineDirty != 0 {
			m.copyLine(line)
			if onLine != nil {
				onLine()
			}
		}
		m.dstate.store(line, 0)
	}
	m.dirtyList = m.dirtyList[:0]
}

// FlushRegion write-backs every line intersecting words [from, to) and
// fences, as one bulk event charged lines*FlushLine + Fence. CX-PUC uses it
// to persist a replica's whole address range after an update; issuing the
// CLWBs one by one would model the same cost at far more simulator events.
func (m *Memory) FlushRegion(t *sim.Thread, from, to uint64) {
	if m.kind != NVM {
		panic("nvm: FlushRegion on volatile memory " + m.name)
	}
	m.settle(t)
	m.announce(t, AccFlushRegion, NoLine, false)
	if to > m.Words() {
		to = m.Words()
	}
	if from >= to {
		t.Step(m.sys.costs.Fence)
		m.sys.met.Fences++
		return
	}
	first := from / WordsPerLine
	last := (to - 1) / WordsPerLine
	lines := last - first + 1
	// With FliT-style elision on, only the range's dirty lines are charged a
	// FlushLine and written back, and clean lines cost one state check each;
	// off, every line is both. Persisting a clean line is a no-op, so only the
	// cost model and the accounting differ. The cost is priced from the
	// pre-Step dirty count and the write-back happens after the Step, so both
	// modes observe the same post-yield line state. FencePerPending is charged
	// for every line in the range either way: the trailing fence's drain walk
	// covers the whole region, and the region flush stays the same number of
	// unit-cost steps in both modes, so elision-on and reference runs stay
	// schedule-identical under sim.UnitCosts (the property the on/off
	// equivalence suite pins word-for-word).
	dirty := lines
	if m.sys.elide {
		dirty = 0
		for line := first; line <= last; line++ {
			if m.dstate.load(line)&lineDirty != 0 {
				dirty++
			}
		}
	}
	t.Step(m.sys.costs.FlushLine*dirty + m.sys.costs.FlushCheck*(lines-dirty) +
		m.sys.costs.Fence + m.sys.costs.FencePerPending*lines)
	m.sys.met.Fences++
	var wrote uint64
	for line := first; line <= last; line++ {
		if !m.sys.elide || m.dstate.load(line)&lineDirty != 0 {
			m.persistLine(line)
			wrote++
		}
	}
	m.sys.met.FlushAsync += wrote
	if m.sys.elide {
		m.sys.met.FlushesElided += lines - wrote
		m.sys.met.FlushElisionChecks += lines
	}
}

// FlushAllDirty write-backs every currently dirty line and fences, as one
// bulk event. It is the "track writes and flush only modified lines"
// strategy that a black-box PUC cannot implement (the ablation benchmark
// uses it to quantify what write tracking would buy PREP-UC over WBINVD).
func (m *Memory) FlushAllDirty(t *sim.Thread) {
	if m.kind != NVM {
		panic("nvm: FlushAllDirty on volatile memory " + m.name)
	}
	m.settle(t)
	m.announce(t, AccFlushAllDirty, NoLine, false)
	lines := m.DirtyLines()
	t.Step(m.sys.costs.FlushLine*lines + m.sys.costs.Fence + m.sys.costs.FencePerPending*lines)
	m.sys.met.Fences++
	m.sweepDirty(nil)
	m.sys.met.FlushAsync += lines
}

// WBINVD writes back every dirty line of the given memories, modelling the
// privileged whole-cache write-back executed by the persistence thread. The
// paper invokes WBINVD on one processor, which writes back all dirty data in
// that processor's cache; since the persistence thread is the only writer of
// the persistent replicas, the affected dirty lines are exactly those of the
// memories it writes, which the caller passes here. Cost is a large fixed
// base plus a per-line charge.
func (s *System) WBINVD(t *sim.Thread, mems ...*Memory) {
	for _, m := range mems {
		m.settle(t)
	}
	s.announce(Access{Thread: t.ID(), Kind: AccWBINVD, Mem: "", Line: NoLine, NVM: true})
	var lines uint64
	for _, m := range mems {
		if m.kind != NVM {
			panic("nvm: WBINVD over volatile memory " + m.name)
		}
		lines += m.DirtyLines()
	}
	t.Step(s.costs.WBINVDBase + s.costs.WBINVDPerLine*lines)
	s.met.WBINVDs++
	for _, m := range mems {
		m.sweepDirty(func() { s.met.WBINVDLines++ })
	}
}
