package linearize

import (
	"maps"
	"math/rand"
	"testing"

	"prepuc/internal/uc"
)

// genSmallSetHistory draws a small set history — at most 3 keys, 3 clients
// and 7 operations, every Class — with timestamps from a narrow range so
// intervals overlap and tie. Results come from one random real-time-
// respecting linearization, occasionally perturbed; the initial state is
// random, and the recovered state is either the state after a random prefix
// of that linearization or random.
func genSmallSetHistory(rng *rand.Rand) (init map[uint64]uint64, ops []Op, recovered map[uint64]uint64) {
	init = map[uint64]uint64{}
	for k := uint64(0); k < 3; k++ {
		if rng.Intn(3) == 0 {
			init[k] = 1 + uint64(rng.Intn(2))
		}
	}
	clients := 1 + rng.Intn(3)
	n := 1 + rng.Intn(7)
	clock := make([]uint64, clients)
	var points []uint64 // linearization point of each op
	for i := 0; i < n; i++ {
		c := rng.Intn(clients)
		inv := clock[c] + uint64(rng.Intn(4))
		ret := inv + uint64(rng.Intn(5))
		clock[c] = ret + 1
		op := Op{Client: c, A0: uint64(rng.Intn(3)), Invoke: inv, Return: ret, Class: Completed}
		switch rng.Intn(4) {
		case 0:
			op.Code, op.A1 = uc.OpInsert, 1+uint64(rng.Intn(2))
		case 1:
			op.Code = uc.OpDelete
		case 2:
			op.Code = uc.OpGet
		default:
			op.Code = uc.OpContains
		}
		ops = append(ops, op)
		points = append(points, inv+uint64(rng.Int63n(int64(ret-inv+1))))
	}
	// A client's last operation may be cut off by the crash.
	for c := 0; c < clients; c++ {
		for i := len(ops) - 1; i >= 0; i-- {
			if ops[i].Client == c {
				if cl := Class(rng.Intn(5)); cl != Completed && cl <= InFlightNever {
					ops[i].Class, ops[i].Return = cl, ^uint64(0)
				}
				break
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort by linearization point
		for j := i; j > 0 && points[order[j-1]] > points[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	cutAt := rng.Intn(n + 1)
	state := maps.Clone(init)
	recovered = maps.Clone(init)
	m := SetModel()
	for pos, i := range order {
		op := &ops[i]
		if op.Class == InFlightNever || (op.Class == InFlight && rng.Intn(2) == 0) {
			continue
		}
		_, op.Result = m.Apply(state, op.Code, op.A0, op.A1)
		if rng.Intn(12) == 0 {
			op.Result ^= 1
		}
		if pos < cutAt {
			recovered = maps.Clone(state)
		}
	}
	if rng.Intn(3) == 0 {
		recovered = map[uint64]uint64{}
		for k := uint64(0); k < 3; k++ {
			if rng.Intn(2) == 0 {
				recovered[k] = 1 + uint64(rng.Intn(2))
			}
		}
	}
	return init, ops, recovered
}

// bruteForce decides an epoch without partitions or instants: it enumerates
// every linearization that respects real time — each completed and
// resolved-committed operation placed, each plain in-flight one placed or
// not, no resolved-never-applied one — with every result legal, and every
// prefix of it as the recovered state. It returns the least number of
// completed updates after the cut (durable: none may follow it) and whether
// it is within the allowance.
func bruteForce(init map[uint64]uint64, ops []Op, recovered map[uint64]uint64, opt Options) (ok bool, lost int) {
	m := SetModel()
	best := opt.Allowance + 1
	placed := make([]bool, len(ops))
	var seq []int
	// evaluate scores the complete linearization seq at every cut.
	evaluate := func() {
		for cut := 0; cut <= len(seq); cut++ {
			state := maps.Clone(init)
			loss, legal := 0, true
			for pos, i := range seq {
				op := &ops[i]
				before := maps.Clone(state)
				_, res := m.Apply(state, op.Code, op.A0, op.A1)
				if op.Class != InFlight && res != op.Result {
					legal = false
					break
				}
				if pos == cut-1 && !maps.Equal(state, recovered) {
					legal = false
					break
				}
				if pos >= cut {
					switch {
					case op.Class == InFlightCommitted, op.Class == Completed && !opt.Buffered:
						legal = false
					case op.Class == Completed && !maps.Equal(before, state):
						loss++
					}
				}
			}
			if cut == 0 && !maps.Equal(init, recovered) {
				legal = false
			}
			if legal && loss < best {
				best = loss
			}
		}
	}
	var walk func()
	walk = func() {
		mandatory := true
		for i := range ops {
			if !placed[i] && (ops[i].Class == Completed || ops[i].Class == InFlightCommitted) {
				mandatory = false
			}
		}
		if mandatory {
			evaluate()
		}
		for x := range ops {
			if placed[x] || ops[x].Class == InFlightNever {
				continue
			}
			blocked := false
			for y := range ops {
				if !placed[y] && ops[y].Class == Completed && ops[y].Return < ops[x].Invoke {
					blocked = true
				}
			}
			if blocked {
				continue
			}
			placed[x] = true
			seq = append(seq, x)
			walk()
			seq = seq[:len(seq)-1]
			placed[x] = false
		}
	}
	walk()
	return best <= opt.Allowance, best
}

// TestOneCutMatchesBruteForce holds the partitioned one-instant check to
// the unpartitioned enumeration of every linearization and every prefix
// cut: same verdict, and on a pass the same least loss, in durable mode and
// in buffered mode at allowances 0 through 2.
func TestOneCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	agree := map[bool]int{}
	for iter := 0; iter < 3000; iter++ {
		init, ops, recovered := genSmallSetHistory(rng)
		for _, opt := range []Options{{}, {Buffered: true}, {Buffered: true, Allowance: 1}, {Buffered: true, Allowance: 2}} {
			r := CheckEpoch(SetModel(), maps.Clone(init), append([]Op(nil), ops...), maps.Clone(recovered), opt)
			ok, lost := bruteForce(init, ops, recovered, opt)
			if r.OK != ok || (ok && opt.Buffered && r.Lost != lost) {
				t.Fatalf("iter %d %+v: checker %s, brute force ok=%v lost=%d\ninit %v recovered %v\nops %+v",
					iter, opt, r, ok, lost, init, recovered, ops)
			}
			agree[ok]++
		}
	}
	if agree[true] < 1000 || agree[false] < 1000 {
		t.Fatalf("verdicts too one-sided to mean anything: %v", agree)
	}
	t.Logf("verdicts: %v", agree)
}

// TestClientRelabellingInvariant: client identifiers only name the
// invoking worker; permuting them leaves the verdict and the loss unchanged.
func TestClientRelabellingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 1000; iter++ {
		init, ops, recovered := genSmallSetHistory(rng)
		perm := rng.Perm(3)
		relabelled := append([]Op(nil), ops...)
		for i := range relabelled {
			relabelled[i].Client = perm[relabelled[i].Client]
		}
		for _, opt := range []Options{{}, {Buffered: true, Allowance: 1}} {
			a := CheckEpoch(SetModel(), maps.Clone(init), ops, maps.Clone(recovered), opt)
			b := CheckEpoch(SetModel(), maps.Clone(init), relabelled, maps.Clone(recovered), opt)
			if a.OK != b.OK || a.Lost != b.Lost {
				t.Fatalf("iter %d %+v: %s, relabelled %s", iter, opt, a, b)
			}
		}
	}
}
