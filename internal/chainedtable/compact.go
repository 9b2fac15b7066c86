package chainedtable

import (
	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// CompactTable is the CPU join phase's build table: every bucket's entries
// are stored contiguously in one tuple array, with starts[b] marking where
// bucket b begins (starts has len buckets+1, so bucket b occupies
// entries[starts[b]:starts[b+1]]). Buckets are exactly Table's — same
// hash, same bucket count, same members — so a probe inspects the entries
// a chain walk would visit, but as a sequential scan of one run instead of
// one dependent load per node. Building costs one extra counting pass over
// the tuples.
type CompactTable struct {
	shift   uint32
	starts  []int32
	entries []relation.Tuple
}

// BuildCompact constructs a compact table over tuples with the same bucket
// count Build would use. The tuple slice is only read, not retained.
//
//skewlint:hotpath
func BuildCompact(tuples []relation.Tuple) *CompactTable {
	t := &CompactTable{}
	t.rebuild(tuples)
	return t
}

// rebuild (re)initialises t over tuples, reusing t's previous starts and
// entries arrays when they have the capacity (an Arena's steady state) and
// allocating otherwise. Counting pass → exclusive prefix sum → scatter →
// shift-down to restore starts.
//
//skewlint:hotpath
func (t *CompactTable) rebuild(tuples []relation.Tuple) {
	nb := bucketCount(len(tuples))
	starts, entries := t.starts, t.entries
	if cap(starts) >= nb+1 {
		starts = starts[:nb+1]
	} else {
		starts = make([]int32, nb+1)
	}
	if cap(entries) >= len(tuples) {
		entries = entries[:len(tuples)]
	} else {
		entries = make([]relation.Tuple, len(tuples))
	}
	t.shift = 32 - hashfn.Log2(nb)
	t.starts = starts
	t.entries = entries
	for b := range starts {
		starts[b] = 0
	}
	for _, tp := range tuples {
		starts[hashfn.Mix32(uint32(tp.Key))>>t.shift]++
	}
	// Exclusive prefix sum: starts[b] becomes bucket b's first slot.
	sum := int32(0)
	for b := 0; b < nb; b++ {
		c := starts[b]
		starts[b] = sum
		sum += c
	}
	starts[nb] = sum
	// Scatter, advancing each bucket's cursor past its filled slots...
	for _, tp := range tuples {
		b := hashfn.Mix32(uint32(tp.Key)) >> t.shift
		entries[starts[b]] = tp
		starts[b]++
	}
	// ...which leaves starts[b] == end of bucket b == start of bucket b+1;
	// shift down one slot to restore the begin offsets.
	for b := nb; b >= 1; b-- {
		starts[b] = starts[b-1]
	}
	starts[0] = 0
	if sanitize.Enabled && int(starts[nb]) != len(tuples) {
		sanitize.Failf("chainedtable: compact build lost tuples (starts[%d]=%d, want %d)",
			nb, starts[nb], len(tuples))
	}
}

// Probe scans k's bucket sequentially, invoking fn for every matching
// tuple, and returns the number of entries inspected. A probe inspects the
// whole bucket — exactly the entries a chained walk of the same bucket
// would visit — so visit counts equal a Table's over the same tuples.
//
//skewlint:hotpath
func (t *CompactTable) Probe(k relation.Key, fn func(pr relation.Payload)) int {
	b := hashfn.Mix32(uint32(k)) >> t.shift
	lo, hi := t.starts[b], t.starts[b+1]
	for i := lo; i < hi; i++ {
		if t.entries[i].Key == k {
			fn(t.entries[i].Payload)
		}
	}
	return int(hi - lo)
}

// MaxChain returns the largest bucket's entry count: the length of the
// longest chain the same tuples would form in a Table, and the §III skew
// symptom the join phase reports.
//
//skewlint:hotpath
func (t *CompactTable) MaxChain() int {
	max := int32(0)
	for b := 0; b+1 < len(t.starts); b++ {
		if n := t.starts[b+1] - t.starts[b]; n > max {
			max = n
		}
	}
	return int(max)
}

// Len returns the number of tuples in the table.
func (t *CompactTable) Len() int { return len(t.entries) }

// Buckets returns the number of buckets.
func (t *CompactTable) Buckets() int { return len(t.starts) - 1 }
