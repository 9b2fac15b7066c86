package chainedtable

import "skewjoin/internal/relation"

// Arena recycles build-table scratch across the per-task builds of a join
// phase. A join phase runs one build per partition pair — thousands of
// tasks at realistic fanouts — and allocating fresh arrays for every one
// costs more than the small builds themselves. An Arena is owned by
// exactly one worker: each Build reuses the previous table's scratch in
// place, so after the first few tasks grow the buffers to the high-water
// mark, the steady state allocates nothing.
//
// The returned table is only valid until the worker's next Build through
// the same arena. When a table must outlive that — joinphase hands split
// sub-tasks sharing one built table to other workers — call Detach first:
// the arena forgets the table and the next Build allocates fresh scratch.
//
// A nil *Arena is valid and simply allocates per build, so callers without
// reuse needs pass nil.
type Arena struct {
	table *CompactTable
}

// Build constructs a compact table over tuples, reusing the arena's
// scratch from the previous build when possible.
//
//skewlint:hotpath
func (a *Arena) Build(tuples []relation.Tuple) *CompactTable {
	if a == nil {
		return BuildCompact(tuples)
	}
	if a.table == nil {
		a.table = &CompactTable{}
	}
	a.table.rebuild(tuples)
	return a.table
}

// Detach releases the arena's claim on the table it handed out, so it
// stays valid indefinitely. The next Build allocates fresh scratch.
func (a *Arena) Detach() {
	if a != nil {
		a.table = nil
	}
}
