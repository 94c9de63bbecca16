package linearize

// cut.go — the buffered crash cut. A buffered crash loses a suffix of one
// linearization: the recovered state is the state of a prefix P, and P is
// closed under real-time precedence (a prefix of a linearization is). In a
// real-time order — an interval order — every such set is "the operations
// before some instant t", the operations whose interval contains t free
// either way: take t at the earliest return among the operations outside P.
// Every completed operation that returned before t is in P, every operation
// invoked after t is not, and no two operations containing t are ordered,
// so nothing else relates the partitions' cuts. Linearizability is local,
// so one instant shared by all partitions is exactly one cut of one
// linearization of the whole history.
//
// A partition's least loss at t is a step function of t over its own
// stamps, and an instant that is a return stamp only is dominated by the
// invoke stamp below it (same operations kept, no more excluded), so the
// candidates are the distinct invoke stamps.

import (
	"fmt"
	"slices"
	"sort"
)

// oneCut finds the least total loss of one cut instant shared by every
// partition, or the partition that fails the allowance and why.
func oneCut(ss []*search, allowance int) (lost int, failed *Problem, reason string) {
	// Each partition's free-cut loss bounds its loss at any instant from
	// below; their sum bounds the total.
	free := make([]int, len(ss))
	lb := 0
	for i, s := range ss {
		free[i] = s.lossFree()
		if lb += free[i]; lb > allowance {
			return 0, s.p, fmt.Sprintf("no linearization of %d ops within the loss budget %d leaves it",
				len(s.p.Ops), allowance-(lb-free[i]))
		}
	}
	if len(ss) <= 1 {
		return lb, nil, ""
	}
	stamps := []uint64{0} // the one class when no partition has a working list
	for _, s := range ss {
		stamps = append(stamps, s.invs...)
	}
	slices.Sort(stamps)
	stamps = slices.Compact(stamps)
	// Latest instant first: a crash loses the end of the history, so the
	// sweep meets the answer early and stops once it reaches the bound.
	// The partition that rejects an instant moves to the front, where it
	// usually rejects the next one from its cached class.
	order := make([]int, len(ss))
	for i := range order {
		order[i] = i
	}
	best := allowance + 1
	for k := len(stamps) - 1; k >= 0 && best > lb; k-- {
		t, sum := stamps[k], lb
		for j, i := range order {
			if sum += ss[i].classAt(t) - free[i]; sum >= best {
				copy(order[1:j+1], order[:j])
				order[0] = i
				break
			}
		}
		if sum < best {
			best = sum
		}
	}
	if best > allowance {
		return 0, ss[order[0]].p, fmt.Sprintf(
			"no crash cut instant shared by all %d partitions within loss budget %d (this one rejected the last)",
			len(ss), allowance)
	}
	return best, nil, ""
}

// classAt is lossAt(t) through a one-entry cache keyed by the cut's
// constraint class — how many completed operations returned before t and
// how many operations were invoked after it. The sweep moves t one way, so
// a class never recurs once left.
func (s *search) classAt(t uint64) int {
	kept, _ := slices.BinarySearch(s.rets, t)
	after := sort.Search(len(s.invs), func(i int) bool { return s.invs[i] > t })
	c := [2]int{kept, len(s.invs) - after}
	if c != s.class {
		s.class, s.classLoss = c, s.lossAt(t)
	}
	return s.classLoss
}
