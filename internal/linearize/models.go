// Sequential specification models mirroring internal/seq: the map/set
// family (hashmap, rbtree, skiplist, listset all share the set semantics),
// the FIFO queue, the LIFO stack and the min-priority queue. Each model's
// result conventions match the corresponding seq implementation exactly
// (Put returns 1 on fresh insert and 0 on overwrite, removals return the
// removed value or uc.NotFound, and so on).
package linearize

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"prepuc/internal/uc"
)

// --- set (map) model, partitioned by key ---

type setModel struct{}

// SetModel returns the specification of the key/value set structures
// (hashmap, rbtree, skiplist, listset). Its full state is a
// map[uint64]uint64; checking partitions by key, so each sub-problem's
// state is just that key's value (uc.NotFound = absent).
func SetModel() Model { return setModel{} }

func (setModel) Name() string { return "set" }

func (setModel) Empty() any { return map[uint64]uint64{} }

func (setModel) Apply(s any, code, a0, a1 uint64) (any, uint64) {
	m := s.(map[uint64]uint64)
	old, present := m[a0]
	switch code {
	case uc.OpInsert:
		m[a0] = a1
		if present {
			return m, 0
		}
		return m, 1
	case uc.OpDelete:
		delete(m, a0)
		if present {
			return m, 1
		}
		return m, 0
	case uc.OpGet:
		if !present {
			return m, uc.NotFound
		}
		return m, old
	case uc.OpContains:
		if present {
			return m, 1
		}
		return m, 0
	case uc.OpSize:
		return m, uint64(len(m))
	default:
		panic(fmt.Sprintf("linearize: set model cannot apply %s", uc.OpName(code)))
	}
}

// setKeyStep is the per-partition step: the state is the key's value as a
// bare uint64, uc.NotFound meaning absent.
func setKeyStep(s any, code, _, a1 uint64) (any, uint64) {
	v := s.(uint64)
	present := v != uc.NotFound
	switch code {
	case uc.OpInsert:
		if present {
			return a1, 0
		}
		return a1, 1
	case uc.OpDelete:
		if present {
			return uc.NotFound, 1
		}
		return uc.NotFound, 0
	case uc.OpGet:
		return v, v
	case uc.OpContains:
		if present {
			return v, 1
		}
		return v, 0
	}
	panic("unreachable: Partition rejects other codes")
}

func u64Key(s any) string {
	v := s.(uint64)
	return string([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56)})
}

func u64Equal(a, b any) bool { return a.(uint64) == b.(uint64) }

// Partition carves the partitions from one stable sort of a copy of ops by
// key (each key's operations keep their recording order); the smallest key
// no operation names whose value changed is the error.
func (setModel) Partition(ops []Op, init, recovered any, hasRecovered bool) ([]Problem, error) {
	im := init.(map[uint64]uint64)
	var rm map[uint64]uint64
	if hasRecovered {
		rm = recovered.(map[uint64]uint64)
	}
	for _, op := range ops {
		switch op.Code {
		case uc.OpInsert, uc.OpDelete, uc.OpGet, uc.OpContains:
		default:
			return nil, fmt.Errorf("set model: %s is not key-partitionable", uc.OpName(op.Code))
		}
	}
	onKey := func(op Op, k uint64) int { return cmp.Compare(op.A0, k) }
	byKey := slices.Clone(ops)
	slices.SortStableFunc(byKey, func(a, b Op) int { return onKey(a, b.A0) })

	valueOr := func(m map[uint64]uint64, k uint64) uint64 {
		if v, ok := m[k]; ok {
			return v
		}
		return uc.NotFound
	}
	var changed []uint64 // keys whose value changed with no operation on them
	for _, m := range []map[uint64]uint64{im, rm} {
		for k := range m {
			if !hasRecovered || valueOr(rm, k) == valueOr(im, k) {
				continue
			}
			if _, touched := slices.BinarySearchFunc(byKey, k, onKey); !touched {
				changed = append(changed, k)
			}
		}
	}
	if len(changed) > 0 {
		k := slices.Min(changed)
		return nil, fmt.Errorf("set model: key %d changed %d -> %d with no operation on it", k, valueOr(im, k), valueOr(rm, k))
	}
	var problems []Problem
	for i, j := 0, 0; i < len(byKey); i = j {
		k := byKey[i].A0
		for j = i + 1; j < len(byKey) && byKey[j].A0 == k; j++ {
		}
		p := Problem{
			Label: keyLabel,
			Ops:   byKey[i:j:j],
			Init:  valueOr(im, k),
			Step:  setKeyStep, Key: u64Key, Equal: u64Equal,
		}
		if hasRecovered {
			p.Recovered, p.HasRecovered = valueOr(rm, k), true
		}
		problems = append(problems, p)
	}
	return problems, nil
}

// keyLabel names a set-model partition by its key, the one every operation
// of it names.
func keyLabel(p *Problem) string { return fmt.Sprintf("key=%d", p.Ops[0].A0) }

// --- sequence-state helpers shared by queue/stack/pqueue ---

func sliceKey(s any) string {
	vs := s.([]uint64)
	b := make([]byte, 0, len(vs)*8)
	for _, v := range vs {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

func sliceEqual(a, b any) bool {
	x, y := a.([]uint64), b.([]uint64)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// copyWithout returns a copy of vs with index i removed; copyWith a copy
// with v appended. States are immutable values shared across search
// branches, so every mutation copies.
func copyWithout(vs []uint64, i int) []uint64 {
	out := make([]uint64, 0, len(vs)-1)
	out = append(out, vs[:i]...)
	return append(out, vs[i+1:]...)
}

func copyWith(vs []uint64, v uint64) []uint64 {
	out := make([]uint64, 0, len(vs)+1)
	out = append(out, vs...)
	return append(out, v)
}

type seqKind int

const (
	fifo seqKind = iota
	lifo
	minHeap
)

// pairsModel covers the three ordered-container specs; only the step
// dispatch differs.
type pairsModel struct {
	name string
	kind seqKind
}

// QueueModel returns the FIFO queue specification (OpEnqueue, OpDequeue,
// OpPeek). State is the queued values, oldest first.
func QueueModel() Model { return pairsModel{"queue", fifo} }

// StackModel returns the LIFO stack specification (OpPush, OpPop, OpTop,
// OpPeek). State is the stacked values, bottom first.
func StackModel() Model { return pairsModel{"stack", lifo} }

// PQueueModel returns the min-priority-queue specification (OpEnqueue/
// OpInsert, OpDeleteMin/OpDequeue, OpMin/OpPeek). State is the sorted
// multiset of keys.
func PQueueModel() Model { return pairsModel{"pqueue", minHeap} }

func (m pairsModel) Name() string { return m.name }

func (m pairsModel) Empty() any { return []uint64{} }

func (m pairsModel) step(s any, code, a0 uint64) (any, uint64, bool) {
	vs := s.([]uint64)
	switch m.kind {
	case fifo:
		switch code {
		case uc.OpEnqueue:
			return copyWith(vs, a0), 1, true
		case uc.OpDequeue:
			if len(vs) == 0 {
				return vs, uc.NotFound, true
			}
			return copyWithout(vs, 0), vs[0], true
		case uc.OpPeek:
			if len(vs) == 0 {
				return vs, uc.NotFound, true
			}
			return vs, vs[0], true
		}
	case lifo:
		switch code {
		case uc.OpPush:
			return copyWith(vs, a0), 1, true
		case uc.OpPop:
			if len(vs) == 0 {
				return vs, uc.NotFound, true
			}
			return copyWithout(vs, len(vs)-1), vs[len(vs)-1], true
		case uc.OpTop, uc.OpPeek:
			if len(vs) == 0 {
				return vs, uc.NotFound, true
			}
			return vs, vs[len(vs)-1], true
		}
	case minHeap:
		switch code {
		case uc.OpEnqueue, uc.OpInsert:
			i := sort.Search(len(vs), func(j int) bool { return vs[j] >= a0 })
			out := make([]uint64, 0, len(vs)+1)
			out = append(out, vs[:i]...)
			out = append(out, a0)
			return append(out, vs[i:]...), 1, true
		case uc.OpDequeue, uc.OpDeleteMin:
			if len(vs) == 0 {
				return vs, uc.NotFound, true
			}
			return copyWithout(vs, 0), vs[0], true
		case uc.OpMin, uc.OpPeek:
			if len(vs) == 0 {
				return vs, uc.NotFound, true
			}
			return vs, vs[0], true
		}
	}
	if code == uc.OpSize {
		return vs, uint64(len(vs)), true
	}
	return vs, 0, false
}

func (m pairsModel) Apply(s any, code, a0, _ uint64) (any, uint64) {
	s2, res, ok := m.step(s, code, a0)
	if !ok {
		panic(fmt.Sprintf("linearize: %s model cannot apply %s", m.name, uc.OpName(code)))
	}
	return s2, res
}

func (m pairsModel) Partition(ops []Op, init, recovered any, hasRecovered bool) ([]Problem, error) {
	for _, op := range ops {
		if _, _, ok := m.step(m.Empty(), op.Code, op.A0); !ok {
			return nil, fmt.Errorf("%s model: unsupported op %s", m.name, uc.OpName(op.Code))
		}
		if op.Code == uc.OpSize {
			return nil, fmt.Errorf("%s model: Size is not checkable", m.name)
		}
	}
	p := Problem{
		Label: func(*Problem) string { return m.name },
		Ops:   ops,
		Init:  init,
		Step: func(s any, code, a0, _ uint64) (any, uint64) {
			s2, res, _ := m.step(s, code, a0)
			return s2, res
		},
		Key: sliceKey, Equal: sliceEqual,
	}
	if hasRecovered {
		p.Recovered, p.HasRecovered = recovered, true
	}
	if m.kind == fifo {
		p.Rank = fifoRank(ops, recovered, hasRecovered)
	}
	return []Problem{p}, nil
}

// fifoRank builds the queue model's exploration hint: in any legal
// linearization the enqueue order of the dequeued values equals their
// dequeue order, and the values still queued at the end sit in recovered
// order behind them. Ranking enqueues by that target position (and forced
// moves — dequeues/peeks — first) lets the DFS walk straight down the
// correct branch of a valid history instead of refuting wrong enqueue
// interleavings queue-depth steps later.
func fifoRank(ops []Op, recovered any, hasRecovered bool) func(op *Op) int {
	deqs := make([]Op, 0, len(ops))
	for _, op := range ops {
		if op.Code == uc.OpDequeue && op.Result != uc.NotFound &&
			(op.Class == Completed || op.Class == InFlightCommitted) {
			deqs = append(deqs, op)
		}
	}
	sort.SliceStable(deqs, func(a, b int) bool { return deqs[a].Invoke < deqs[b].Invoke })
	pos := make(map[uint64]int, len(deqs))
	n := 0
	for _, d := range deqs {
		if _, seen := pos[d.Result]; !seen {
			pos[d.Result] = n
			n++
		}
	}
	if hasRecovered {
		for _, v := range recovered.([]uint64) {
			if _, seen := pos[v]; !seen {
				pos[v] = n
				n++
			}
		}
	}
	unmatched := n + 1
	return func(op *Op) int {
		if op.Code != uc.OpEnqueue {
			return -1 // dequeues/peeks are forced moves: try them first
		}
		if r, ok := pos[op.A0]; ok {
			return r
		}
		return unmatched // value never observed again (e.g. vanished in-flight)
	}
}
