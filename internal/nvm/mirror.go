package nvm

import (
	"fmt"
	"strings"

	"prepuc/internal/sim"
)

// mirror is one Mirror stretch: its source, the destinations every access of
// the source's holder is applied to, and what the accesses cost.
type mirror struct {
	src  *Memory
	dsts []*Memory
	cost uint64 // the stretch's summed access costs, source's and destinations', charged at Release
	// loadBase and storeBase are the destinations' summed base prices of a
	// load and of a store or CAS, booked as add books them: what an access
	// that moves no owner costs them all.
	loadBase, storeBase uint64
}

// Mirror write-holds m for t, as Hold(t, true) does, with the destinations
// dsts attached: until Release(t), each Load, Store and CAS that t makes to m
// is made to every destination as well, at the same offset and at once, by
// the destination's own code. Its loadCost and storeCost move its line
// owners and count its coherence transfers; for a store or CAS its End half
// counts the access, writes its word and runs written, which sets its dirty
// bit and list entry and draws its own background write-back; its own slabs
// privatize its pages. What the mirror skips is the caller's Go-side work per
// destination, every read of a destination's word and, where no owner moves,
// of its owners (price books their base prices, summed once at the start),
// and the Step of every access: the costs of the source's accesses and of the
// destinations' are summed as Steps would charge them and charged in one Step
// when t releases m, so t's clock ends where replaying t's accesses into m and
// then into each destination would have left it. Only the event count
// differs: the stretch is one event, which a Chooser or an armed crash sees
// whole, so a mirror belongs where no other thread runs, as at boot.
//
// Every destination must start with m's words and line owners, so that a
// replay into it reads what a replay into m reads, makes the same accesses
// and moves the owners the source moves. The mirror keeps both equal, since
// every access applies to all of them alike. Every other piece of a
// destination's state (dirty state, persisted view, background draws) is its
// own and moves as a replay would move it. Given that start, a replay into m
// under Mirror leaves each destination exactly as replaying the same code
// into it would, background write-backs included, provided the code touches
// m alone and steps nothing itself.
//
// Everything else the mirror could not reproduce is a bug panic naming m or
// the destination: a destination of another machine or size, whose words or
// line owners differ from m's, or that is held, watched or m itself; a line
// of m or of a destination awaiting a fence in some flusher; an access or
// persist-effect hook installed at the mirror's start or release; and, until
// the release, any access to a destination or its release, another thread's
// access to m, a Begin half, a flush or write-back, and a Watch or a hold of
// m. An End half passes no gate, as under any hold: it completes a Begin
// half, which the gate refuses.
func (m *Memory) Mirror(t *sim.Thread, dsts ...*Memory) {
	m.Hold(t, true)
	mr := &mirror{src: m, dsts: dsts}
	m.mir, m.mirrored = mr, true
	for _, d := range dsts {
		switch {
		case d.sys != m.sys:
			panic(fmt.Sprintf("nvm: %s cannot mirror to %s of another machine", m.name, d.name))
		case d.words != m.words:
			panic(fmt.Sprintf("nvm: %s (%d words) cannot mirror to %s (%d words)", m.name, m.words, d.name, d.words))
		case !sameSlabs(&d.data, &m.data) || !sameSlabs(&d.owner, &m.owner):
			panic(fmt.Sprintf("nvm: %s cannot mirror to %s, whose words or line owners differ", m.name, d.name))
		}
		d.Hold(t, true)
		d.mir, d.mirrored = mr, true
		mr.loadBase += max(d.basePrice(false), 1)
		mr.storeBase += max(d.basePrice(true), 1)
	}
	mr.untraced(t)
	for _, f := range m.sys.flushers {
		for _, p := range f.pending {
			if p.m.mirrored && p.m.mir == mr {
				panic(fmt.Sprintf("nvm: %s has a line awaiting a fence, %s", p.m.name, p.m.held()))
			}
		}
	}
}

// names lists the destinations for a refusal.
func (mr *mirror) names() string {
	names := make([]string, len(mr.dsts))
	for i, d := range mr.dsts {
		names[i] = d.name
	}
	return strings.Join(names, ",")
}

// detach ends the mirror as its holder t releases m, which must be the
// source: the destinations are released, and t's release charges the
// stretch's summed cost.
func (mr *mirror) detach(t *sim.Thread, m *Memory) {
	if m != mr.src {
		m.foreign(t, "released")
	}
	mr.untraced(t)
	for _, d := range mr.dsts {
		d.holders, d.writer, d.mirrored, d.mir = d.holders[:0], false, false, nil
	}
	m.mirrored, m.mir = false, nil
}

// add books one access's cost as its Step would: a zero-cost event is
// charged 1 ns.
func (mr *mirror) add(cost uint64) { mr.cost += max(cost, 1) }

// untraced refuses a mirror that a hook may see, at its start and at its
// release: the hook would not see the destinations' accesses.
func (mr *mirror) untraced(t *sim.Thread) {
	if s := mr.src.sys; s.accHook != nil || s.peHook != nil {
		panic(fmt.Sprintf("nvm: thread %q mirrored %s under a hook, %s", t.Name(), mr.src.name, mr.src.held()))
	}
}

// enter is the gate of an access by the mirror's holder t to m: the mirror
// applies it if m is the source, and refuses it on a destination.
func (mr *mirror) enter(t *sim.Thread, m *Memory) gate {
	if m != mr.src {
		m.foreign(t, "accessed")
	}
	return mirrorGate
}

// price books every destination's cost of t's access to line, a store's or
// CAS's if store, before the source's own access moves the source's owner.
// The destinations' owners are the source's, so where the source's access
// moves no owner, neither does any destination's: they cost their summed
// base prices, and no destination owner is read. Where it does, each
// destination's loadCost or storeCost moves its own.
func (mr *mirror) price(t *sim.Thread, line uint64, store bool) {
	own := mr.src.owner.load(line)
	switch {
	case !store && (own == ownerShared || own == ownerOf(t.ID())):
		mr.cost += mr.loadBase
	case store && own == ownerOf(t.ID()):
		mr.cost += mr.storeBase
	case store:
		for _, d := range mr.dsts {
			mr.add(d.storeCost(t, line))
		}
	default:
		for _, d := range mr.dsts {
			mr.add(d.loadCost(t, line))
		}
	}
}

// load is a Load's effect on every destination, which counts it and reads
// no word (each is the source's), then the source's Begin half; the costs are
// booked for the release, and Load ends the access on the source.
func (mr *mirror) load(t *sim.Thread, off uint64) {
	mr.price(t, off/WordsPerLine, false)
	mr.src.sys.met.Loads += uint64(len(mr.dsts))
	mr.add(mr.src.loadBegin(t, off))
}

// store is a Store's effect on every destination, its End half included,
// then the source's Begin half; the costs are booked for the release, and
// Store ends the access on the source.
func (mr *mirror) store(t *sim.Thread, off, v uint64) {
	mr.price(t, off/WordsPerLine, true)
	for _, d := range mr.dsts {
		d.StoreEnd(t, off, v)
	}
	mr.add(mr.src.storeBegin(t, off, AccStore))
}

// cas is a CAS's effect on every destination, its End half included, then
// the source's Begin half; the costs are booked for the release, and CAS ends
// the access on the source. Every destination's word is the source's, so each
// CAS fails or succeeds alike.
func (mr *mirror) cas(t *sim.Thread, off, old, new uint64) {
	mr.price(t, off/WordsPerLine, true)
	for _, d := range mr.dsts {
		d.CASEnd(t, off, old, new)
	}
	mr.add(mr.src.storeBegin(t, off, AccCAS))
}
