package harness

// schedule.go holds one machine's share of the open-loop arrival schedule
// while its load runs. The schedule is a pure function of openloop.Config,
// so nothing is materialized ahead of the load: every machine draws the
// whole schedule from its own openloop.Stream, as its injectors reach it,
// keeps the arrivals routed to it and drops the rest. Each ring keeps a FIFO
// window of the arrivals it still needs — from the oldest it has not
// completed up to the machine's generation frontier — in fixed-size blocks
// that a retired prefix hands back to the machine's free list, so a run
// allocates its peak live window once and the schedule's length never shows.

import "prepuc/internal/openloop"

// blockLen is the arrivals one window block holds (8 KiB of them).
const blockLen = 256

type block [blockLen]openloop.Arrival

// schedule is one machine's arrival schedule, drawn lazily from its stream.
type schedule struct {
	stream *openloop.Stream
	// ring is the machine's bucket function, called once per drawn arrival:
	// the ring of this machine the arrival goes to, or -1 for another
	// machine's.
	ring  func(*openloop.Arrival) int
	rings []window
	free  []*block // retired blocks, taken before a new one is allocated
	drawn uint64   // arrivals this machine has drawn
	// next is the arrival being bucketed: held here, not on draw's frame,
	// because ring takes its address.
	next openloop.Arrival
}

// newSchedule starts the schedule open describes for a machine of rings
// rings that keeps the arrivals ring buckets to them.
func newSchedule(open openloop.Config, rings int, ring func(*openloop.Arrival) int) (*schedule, error) {
	s, err := openloop.NewStream(open)
	if err != nil {
		return nil, err
	}
	return &schedule{stream: s, ring: ring, rings: make([]window, rings)}, nil
}

// draw pulls the stream up to the machine's next arrival, appends it to its
// ring's window and reports whether there was one.
func (sc *schedule) draw() bool {
	for {
		var ok bool
		if sc.next, ok = sc.stream.Next(); !ok {
			return false
		}
		if r := sc.ring(&sc.next); r >= 0 {
			sc.rings[r].push(sc.next, &sc.free)
			sc.drawn++
			return true
		}
	}
}

// at returns ring r's arrival of sequence number seq in the present service
// generation, drawing up to it, or nil when the ring's schedule ends before
// it. The ring must not have completed seq yet.
func (sc *schedule) at(r, seq int) *openloop.Arrival {
	w := &sc.rings[r]
	for seq >= w.base+w.n {
		if !sc.draw() {
			return nil
		}
	}
	return w.at(seq)
}

// retire drops ring r's oldest arrival, which the ring has just completed,
// and returns it.
func (sc *schedule) retire(r int) openloop.Arrival {
	w := &sc.rings[r]
	a := *w.at(w.base)
	w.pop(&sc.free)
	return a
}

// live reports whether the machine still has load: an arrival drawn and not
// completed, or one left to draw.
func (sc *schedule) live() bool {
	for i := range sc.rings {
		if sc.rings[i].n > 0 {
			return true
		}
	}
	return sc.draw()
}

// window is one ring's live arrivals in schedule order: n of them, the front
// one at index off of the first block held, with sequence number base. The
// block table is circular, its length a power of two.
type window struct {
	blocks      []*block
	first, held int // the front block's table index; blocks held
	off, n      int
	base        int
}

// at is the held arrival of sequence number seq.
func (w *window) at(seq int) *openloop.Arrival {
	i := w.off + seq - w.base
	return &w.blocks[(w.first+i/blockLen)&(len(w.blocks)-1)][i%blockLen]
}

// push appends a, taking a block from free when the last one is full.
func (w *window) push(a openloop.Arrival, free *[]*block) {
	if w.off+w.n == w.held*blockLen {
		if w.held == len(w.blocks) {
			table := make([]*block, max(4, 2*len(w.blocks)))
			for i := 0; i < w.held; i++ {
				table[i] = w.blocks[(w.first+i)&(len(w.blocks)-1)]
			}
			w.blocks, w.first = table, 0
		}
		var b *block
		if k := len(*free); k > 0 {
			b, *free = (*free)[k-1], (*free)[:k-1]
		} else {
			b = new(block)
		}
		w.blocks[(w.first+w.held)&(len(w.blocks)-1)] = b
		w.held++
	}
	w.n++
	*w.at(w.base + w.n - 1) = a
}

// pop drops the front arrival, handing its block to free once the block is
// spent.
func (w *window) pop(free *[]*block) {
	w.off++
	w.n--
	w.base++
	if w.off == blockLen {
		*free = append(*free, w.blocks[w.first])
		w.blocks[w.first] = nil
		w.first = (w.first + 1) & (len(w.blocks) - 1)
		w.held--
		w.off = 0
	}
}
