// Package uc defines the interfaces shared by every universal construction
// in this repository: the shape of a black-box sequential object and the
// ExecuteConcurrent entry point of a universal construction.
//
// Operations are encoded as (code, a0, a1) word triples. The paper's
// PREP-Durable cannot persist std::function wrappers, so it stores raw
// operation identifiers in the log and dispatches through an Execute switch
// provided by the sequential object; we use the same convention for every
// construction. The user-supplied read-only flag of the paper's
// ExecuteConcurrent maps to DataStructure.IsReadOnly.
package uc

import (
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
)

// NotFound is the conventional "no value" result.
const NotFound = ^uint64(0)

// Common operation codes. Each sequential object implements the subset that
// makes sense for it and panics on others.
const (
	OpGet uint64 = iota + 1
	OpContains
	OpInsert
	OpDelete
	OpSize
	OpPush
	OpPop
	OpTop
	OpEnqueue
	OpDequeue
	OpPeek
	OpDeleteMin
	OpMin
)

// OpName returns a human-readable name for an operation code.
func OpName(code uint64) string {
	switch code {
	case OpGet:
		return "get"
	case OpContains:
		return "contains"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpSize:
		return "size"
	case OpPush:
		return "push"
	case OpPop:
		return "pop"
	case OpTop:
		return "top"
	case OpEnqueue:
		return "enqueue"
	case OpDequeue:
		return "dequeue"
	case OpPeek:
		return "peek"
	case OpDeleteMin:
		return "delete-min"
	case OpMin:
		return "min"
	default:
		return "unknown"
	}
}

// Op is one encoded operation.
type Op struct {
	Code, A0, A1 uint64
	// Invid is an optional client-assigned invocation identifier for
	// detectable execution. When nonzero, constructions that support
	// operation descriptors (core.Config.Detect) durably record the
	// operation's fate so recovery can answer completed-with-result /
	// never-applied for it. Zero — the zero value, and what every
	// closed-loop benchmark driver passes — requests no detectability and
	// costs nothing.
	Invid uint64
}

// DataStructure is a black-box sequential object. A universal construction
// never looks inside Execute — in particular it cannot interpose flushes
// between the loads and stores Execute performs, which is the constraint
// that drives PREP-UC's whole design.
type DataStructure interface {
	// Execute runs one operation and returns its result.
	Execute(t *sim.Thread, code, a0, a1 uint64) uint64
	// IsReadOnly reports whether the operation with this code leaves the
	// object unchanged (the user-provided read-only hint of the paper).
	IsReadOnly(code uint64) bool
	// Dump emits a sequence of update operations that, replayed in order on
	// a fresh instance, reconstructs the current state. Recovery uses it to
	// clone replicas across memories.
	Dump(t *sim.Thread, emit func(code, a0, a1 uint64))
}

// Factory creates a fresh, empty instance of the sequential object inside
// the given heap. Implementations record their root through the allocator's
// root slot 0 so Attacher can find it after a crash.
type Factory func(t *sim.Thread, a *pmem.Allocator) DataStructure

// Attacher re-opens an instance previously created by the matching Factory
// in a heap that survived a crash.
type Attacher func(t *sim.Thread, a *pmem.Allocator) DataStructure

// ObjectType is the one description of a sequential object: how to create
// it and how to re-open it after a crash. Every seq structure names itself
// with one (seq.HashMapType, …) and the constructions take it whole, except
// core.Config, which keeps the two functions as separate fields.
type ObjectType struct {
	// New creates a fresh instance.
	New Factory
	// Attach re-opens a crashed instance created by New.
	Attach Attacher
}

// UC is a universal construction: it turns the sequential object it was
// built around into a linearizable concurrent one.
type UC interface {
	// Execute performs op on behalf of worker tid (the paper's
	// ExecuteConcurrent). It returns the operation's result.
	Execute(t *sim.Thread, tid int, op Op) uint64
}

// Clone replays src's state into dst via Dump/Execute. Both sides are
// treated as black boxes; this is how recovery instantiates replicas as
// copies of the stable persistent replica.
func Clone(t *sim.Thread, src, dst DataStructure) {
	src.Dump(t, func(code, a0, a1 uint64) {
		dst.Execute(t, code, a0, a1)
	})
}
