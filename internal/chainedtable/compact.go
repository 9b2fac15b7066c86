package chainedtable

import (
	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// CompactTable is the build table of the CPU join phase and of the
// simulated GPU kernels: every bucket's entries are stored contiguously in
// one tuple array, with starts[b] marking where bucket b begins (starts
// has len buckets+1, so bucket b occupies entries[starts[b]:starts[b+1]]).
// Buckets are exactly the paper's chains — same hash, same bucket count,
// same members as a Concurrent over the same tuples — so a probe inspects
// the entries a chain walk would visit, but as a sequential scan of one
// run instead of one dependent load per node. Building costs one extra
// counting pass over the tuples.
type CompactTable struct {
	// shift selects the HIGH bits of the hashed key as the bucket index.
	// Radix partitioning consumes the low hash bits, so every tuple within
	// one partition shares them; bucketing on the high bits keeps buckets
	// short for distinct keys inside a partition.
	shift    uint32
	starts   []int32
	entries  []relation.Tuple
	maxChain int32 // largest bucket, counted during the build
}

// BuildCompact constructs a compact table over tuples with roughly one
// bucket per tuple (rounded up to a power of two). The tuple slice is only
// read, not retained.
//
//skewlint:hotpath
func BuildCompact(tuples []relation.Tuple) *CompactTable {
	t := &CompactTable{}
	t.rebuild(tuples)
	return t
}

// rebuild (re)initialises t over tuples, reusing t's previous starts and
// entries arrays when they have the capacity (an Arena's steady state) and
// allocating otherwise.
//
//skewlint:hotpath
func (t *CompactTable) rebuild(tuples []relation.Tuple) {
	t.shift, t.starts, t.entries, t.maxChain = bucketize(tuples, t.starts, t.entries)
}

// bucketize lays tuples out bucket by bucket, the bucketing every one-shot
// table shares: bucketCount(len(tuples)) buckets on the high bits of the
// mixed key, and bucket b's tuples in entries[starts[b]:starts[b+1]] in
// input order. starts and entries are reused when they have the capacity
// and allocated otherwise. It returns the bucket shift, both arrays and
// the largest bucket. Counting pass → exclusive prefix sum → stable
// scatter → shift-down to restore starts.
//
//skewlint:hotpath
func bucketize(tuples []relation.Tuple, starts []int32, entries []relation.Tuple) (uint32, []int32, []relation.Tuple, int32) {
	nb := bucketCount(len(tuples))
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
	shift := 32 - hashfn.Log2(nb)
	for b := range starts {
		starts[b] = 0
	}
	for _, tp := range tuples {
		starts[hashfn.Mix32(uint32(tp.Key))>>shift]++
	}
	// Exclusive prefix sum: starts[b] becomes bucket b's first slot. The
	// counts pass through here once, so the largest bucket is free.
	sum, maxChain := int32(0), int32(0)
	for b := 0; b < nb; b++ {
		c := starts[b]
		starts[b] = sum
		sum += c
		if c > maxChain {
			maxChain = c
		}
	}
	starts[nb] = sum
	// Scatter, advancing each bucket's cursor past its filled slots...
	for _, tp := range tuples {
		b := hashfn.Mix32(uint32(tp.Key)) >> shift
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
		sanitize.Failf("chainedtable: bucketing lost tuples (starts[%d]=%d, want %d)",
			nb, starts[nb], len(tuples))
	}
	return shift, starts, entries, maxChain
}

// Bucket returns the entries a probe of k inspects: every tuple that
// hashes into k's bucket, in input order — exactly the entries a chained
// walk of the same bucket would visit, so its length is the probe's visit
// count. The caller compares the keys (outbuf.Buffer.PushMatches emits
// the matches as it does). The slice must not be modified.
//
//skewlint:hotpath
func (t *CompactTable) Bucket(k relation.Key) []relation.Tuple {
	b := hashfn.Mix32(uint32(k)) >> t.shift
	return t.entries[t.starts[b]:t.starts[b+1]]
}

// MaxChain returns the largest bucket's entry count: the length of the
// longest chain the same tuples would form in a chained table, and the
// §III skew symptom the join phase reports.
func (t *CompactTable) MaxChain() int { return int(t.maxChain) }

// Len returns the number of tuples in the table.
func (t *CompactTable) Len() int { return len(t.entries) }

// Buckets returns the number of buckets.
func (t *CompactTable) Buckets() int { return len(t.starts) - 1 }
