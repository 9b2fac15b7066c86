package chainedtable

import (
	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// Incremental is a bucket-chained hash table that grows as tuples arrive,
// the build structure of the streaming symmetric hash join: neither input
// is complete when probing starts, so the one-shot Build path
// (which sizes its bucket array from a finished partition) cannot be used.
// Tuples are appended one at a time; when the load factor reaches one the
// bucket array doubles and every chain is relinked in place — amortised
// O(1) per insert, same masked-high-bits bucketing as Table, so a popular
// key still produces the one long chain the paper's skew analysis is
// about.
//
// An Incremental is owned by one lane of the symmetric join and is only
// touched under that lane's lock; it is not safe for concurrent use.
type Incremental struct {
	shift  uint32
	heads  []int32
	next   []int32
	tuples []relation.Tuple
}

// incrementalMinBuckets is the initial bucket count. Lanes start tiny —
// most of the fanout sees a few tuples per chunk — so the first table is
// small and doubles only when the stream actually fills it.
const incrementalMinBuckets = 8

// NewIncremental returns an empty growable table. capHint (tuples) sizes
// the initial bucket array when the caller can predict the lane's final
// cardinality; 0 starts at the minimum.
func NewIncremental(capHint int) *Incremental {
	nb := incrementalMinBuckets
	if capHint > nb {
		nb = hashfn.NextPow2(capHint)
	}
	return &Incremental{
		shift: 32 - hashfn.Log2(nb),
		heads: newHeads(nb),
		next:  make([]int32, 0, nb),
	}
}

// newHeads allocates an empty-chain bucket array (-1 terminators).
func newHeads(nb int) []int32 {
	heads := make([]int32, nb)
	for b := range heads {
		heads[b] = -1
	}
	return heads
}

// Insert appends tp and links it into its bucket chain, growing the bucket
// array first when the table is at load factor one. Unlike the one-shot
// build paths it allocates by design (amortised growth), so it carries no
// hotpath annotation.
func (t *Incremental) Insert(tp relation.Tuple) {
	if len(t.tuples) >= len(t.heads) {
		t.grow()
	}
	i := int32(len(t.tuples))
	t.tuples = append(t.tuples, tp)
	b := hashfn.Mix32(uint32(tp.Key)) >> t.shift
	t.next = append(t.next, t.heads[b])
	t.heads[b] = i
}

// grow doubles the bucket array and relinks every tuple. The tuple and
// next slices keep their storage; only the heads array is reallocated.
func (t *Incremental) grow() {
	nb := len(t.heads) * 2
	t.shift = 32 - hashfn.Log2(nb)
	t.heads = newHeads(nb)
	for i, tp := range t.tuples {
		b := hashfn.Mix32(uint32(tp.Key)) >> t.shift
		t.next[i] = t.heads[b]
		t.heads[b] = int32(i)
	}
}

// Probe walks the chain of k's bucket, invoking fn for every tuple whose
// key equals k, and returns the number of chain nodes visited.
//
//skewlint:hotpath
func (t *Incremental) Probe(k relation.Key, fn func(pr relation.Payload)) int {
	visited := 0
	for i := t.heads[hashfn.Mix32(uint32(k))>>t.shift]; i >= 0; i = t.next[i] {
		visited++
		if sanitize.Enabled && visited > len(t.tuples) {
			sanitize.Failf("chainedtable: cycle in incremental bucket chain for key %d (visited %d nodes, table holds %d tuples)",
				k, visited, len(t.tuples))
		}
		if t.tuples[i].Key == k {
			fn(t.tuples[i].Payload)
		}
	}
	return visited
}

// Len returns the number of tuples inserted so far.
func (t *Incremental) Len() int { return len(t.tuples) }

// Buckets returns the current bucket count.
func (t *Incremental) Buckets() int { return len(t.heads) }

// MaxChain returns the longest chain currently in the table (the symmetric
// join's skew symptom, mirroring Table.MaxChain).
func (t *Incremental) MaxChain() int {
	max := 0
	for b := range t.heads {
		n := 0
		for i := t.heads[b]; i >= 0; i = t.next[i] {
			n++
			if sanitize.Enabled && n > len(t.tuples) {
				sanitize.Failf("chainedtable: cycle in incremental bucket %d's chain (visited %d nodes, table holds %d tuples)",
					b, n, len(t.tuples))
			}
		}
		if n > max {
			max = n
		}
	}
	return max
}
