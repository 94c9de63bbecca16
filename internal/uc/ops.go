package uc

// Typed operation constructors. Call sites used to spell operations as raw
// (code, a0, a1) triples — uc.Insert(k, v) — which
// reads fine in the engine (the log stores exactly that) but is noise and an
// argument-order hazard everywhere else. These constructors are the client
// vocabulary; the triple encoding stays an engine detail.

// Get looks a key up in a map, returning its value or NotFound.
func Get(k uint64) Op { return Op{Code: OpGet, A0: k} }

// Contains tests key membership (1 present, 0 absent).
func Contains(k uint64) Op { return Op{Code: OpContains, A0: k} }

// Insert maps k to v, replacing any previous value.
func Insert(k, v uint64) Op { return Op{Code: OpInsert, A0: k, A1: v} }

// Delete removes a key.
func Delete(k uint64) Op { return Op{Code: OpDelete, A0: k} }

// Size reports the number of elements.
func Size() Op { return Op{Code: OpSize} }

// Enqueue appends v to a FIFO queue (or inserts into a priority queue).
func Enqueue(v uint64) Op { return Op{Code: OpEnqueue, A0: v} }

// DeleteMin removes the minimum of a priority queue.
func DeleteMin() Op { return Op{Code: OpDeleteMin} }
