package uc

import (
	"fmt"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// Lineage is one construction's chain of generations on a machine, held at
// one generation of it. Every persistent construction in this repository
// names its memories "<namespace>.g<generation>.<role>" and recovers by
// building the state of the committed generation into a fresh one; the
// lineage owns that protocol's bookkeeping, and each construction keeps
// what to read from the source and how to rebuild it:
//
//   - Name is the region-name format.
//   - The commit record is one NVM line named "<namespace>.<record>",
//     shared by every generation. Word 0 holds committedGeneration+1 (0 =
//     nothing committed yet — fresh NVM reads zero), flipped by Commit with
//     a single synchronous line flush only AFTER the new generation's state
//     is fully persisted. That ordering makes recovery re-entrant: killed
//     at any event, a re-run reads the same committed source, because a
//     generation becomes the source only once it is complete.
//   - Source is the committed generation of a recovered machine, and Next
//     the generation a recovery builds into: the first one past the source
//     with no region on the machine at all. The rule is a prefix test over
//     the machine's region names, not a list of roles to probe, so it holds
//     whichever region a construction happens to create first (DESIGN.md
//     §15, "One lineage").
//
// A Lineage is a value: Source and Next return the lineage at another
// generation, and an engine keeps the one it was built at.
type Lineage struct {
	namespace, record string
	gen               int
	// sys and cell are the commit record, once EnsureCommit attached it.
	sys  *nvm.System
	cell *nvm.Memory
}

// NewLineage is generation 0 of the lineage whose regions are named
// "<namespace>.g<n>.<role>" and whose commit record is
// "<namespace>.<record>". An empty namespace drops the leading dot.
func NewLineage(namespace, record string) Lineage {
	return Lineage{namespace: namespace, record: record}
}

func (l Lineage) qualify(s string) string {
	if l.namespace == "" {
		return s
	}
	return l.namespace + "." + s
}

// Generation is the generation the lineage is held at.
func (l Lineage) Generation() int { return l.gen }

// Name is the name of this generation's region with the given role.
func (l Lineage) Name(role string) string {
	return l.qualify(fmt.Sprintf("g%d.%s", l.gen, role))
}

// EnsureCommit attaches the lineage's commit record on sys, creating it (one
// NVM line homed on node home) when this is the first engine of the lineage
// there. Regions are fingerprinted in creation order, so a construction calls
// it at a fixed point of its boot sequence.
func (l *Lineage) EnsureCommit(sys *nvm.System, home int) {
	l.sys = sys
	if name := l.qualify(l.record); sys.HasMemory(name) {
		l.cell = sys.Memory(name)
	} else {
		l.cell = sys.NewMemory(name, nvm.NVM, home, nvm.WordsPerLine)
	}
}

// Commit durably records this generation as the one recovery starts from.
// The synchronous flush means the record is persistent before Commit
// returns; a crash anywhere inside Commit leaves either the old or the new
// value, both of which name a complete generation. Callers run it only after
// the generation's state is persisted.
func (l Lineage) Commit(t *sim.Thread) {
	l.cell.Store(t, 0, uint64(l.gen)+1)
	f := l.sys.NewFlusher()
	f.FlushLineSync(t, l.cell, 0)
}

// Source returns the lineage at the generation recovery must read: the one
// recSys's persisted commit record names, or generation 0 when the record
// does not exist or was never flipped (a crash before the lineage's first
// commit). A machine that holds no region of that generation — another
// lineage's image, or a record naming a generation that was never built —
// is an error: there is nothing to recover from.
func (l Lineage) Source(recSys *nvm.System) (Lineage, error) {
	src, record := NewLineage(l.namespace, l.record), l.qualify(l.record)
	if recSys.HasMemory(record) {
		if w := recSys.Memory(record).PersistedLoad(0); w != 0 {
			src.gen = int(w - 1)
		}
	}
	if !recSys.HasMemoryPrefix(src.Name("")) {
		return src, fmt.Errorf("uc: lineage %q: the machine holds no region of generation %d (%s*)",
			record, src.gen, src.Name(""))
	}
	return src, nil
}

// Next returns the lineage at the generation a recovery from l builds into:
// the first one past l with no region on recSys. Every generation it skips
// is a recovery attempt a crash cut down mid-build — counted in the
// machine's recovery_restarts — whose partial regions stay behind, unread.
func (l Lineage) Next(recSys *nvm.System) Lineage {
	next := NewLineage(l.namespace, l.record)
	for next.gen = l.gen + 1; recSys.HasMemoryPrefix(next.Name("")); next.gen++ {
		recSys.Metrics().RecoveryRestarts++
	}
	return next
}
