package seq

import "prepuc/internal/uc"

// ObjectType descriptors for every sequential structure in this package:
// the catalog (and any other builder) names a structure once and gets its
// factory and attacher together instead of threading the pieces around as
// parallel arguments.

// HashMapType describes the resizable hashmap with the given initial bucket
// count.
func HashMapType(initialBuckets uint64) uc.ObjectType {
	return uc.ObjectType{New: HashMapFactory(initialBuckets), Attach: HashMapAttacher}
}

// RBTreeType describes the red-black tree set.
func RBTreeType() uc.ObjectType {
	return uc.ObjectType{New: RBTreeFactory(), Attach: RBTreeAttacher}
}

// SkipListType describes the skip-list set.
func SkipListType() uc.ObjectType {
	return uc.ObjectType{New: SkipListFactory(), Attach: SkipListAttacher}
}

// ListSetType describes the sorted linked-list set.
func ListSetType() uc.ObjectType {
	return uc.ObjectType{New: ListSetFactory(), Attach: ListSetAttacher}
}

// QueueType describes the FIFO queue.
func QueueType() uc.ObjectType {
	return uc.ObjectType{New: QueueFactory(), Attach: QueueAttacher}
}

// StackType describes the stack.
func StackType() uc.ObjectType {
	return uc.ObjectType{New: StackFactory(), Attach: StackAttacher}
}

// PQueueType describes the priority queue.
func PQueueType() uc.ObjectType {
	return uc.ObjectType{New: PQueueFactory(), Attach: PQueueAttacher}
}
