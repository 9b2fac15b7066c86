// Package chainedtable implements the hash tables the joins build.
//
// Both Cbase and Gbase use chained hashing (§III). All tuples with the same
// key hash into the same bucket, so a popular key produces one long bucket;
// probing it costs one key comparison per entry. That behaviour — the
// paper's central criticism of the baselines under skew — is what every
// table here reproduces: a probe inspects its key's whole bucket, and the
// visit count it returns is the bucket's length.
//
// Four tables share one bucketing (the high bits of the mixed key):
//
//   - CompactTable (compact.go): each bucket stored as one contiguous run.
//     The CPU join phase (Cbase, CSH's NM-join and the split executor's
//     CPU leg) builds one per join task through a per-worker Arena
//     (arena.go) that recycles its scratch across tasks;
//   - Table: the paper's index-linked chains, built by the simulated GPU
//     kernels (gpupart.ProbeJoinBlock), which model the chain walk;
//   - Concurrent: a latch-free shared chained table built by many threads
//     with CAS head insertion (cbase-npj builds one over the whole of R);
//   - Incremental (incremental.go): a growable chained table for the
//     streaming symmetric join.
//
// A CompactTable and a Table over the same tuples have the same buckets
// with the same members, so probe visit counts and the largest bucket
// (MaxChain) agree between them.
package chainedtable

import (
	"sync/atomic"

	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// Table is a bucket-chained hash table over a tuple slice. Chains are
// index-linked: heads[b] is the index of the first tuple in bucket b and
// next[i] links tuple i to the next tuple in its bucket (-1 terminates).
type Table struct {
	// shift selects the HIGH bits of the hashed key as the bucket index.
	// Radix partitioning consumes the low hash bits, so every tuple within
	// one partition shares them; bucketing on the high bits keeps chains
	// short for distinct keys inside a partition.
	shift  uint32
	heads  []int32
	next   []int32
	tuples []relation.Tuple
}

// Build constructs a table over tuples with roughly one bucket per tuple
// (rounded up to a power of two). The tuple slice is retained, not copied.
//
//skewlint:hotpath
func Build(tuples []relation.Tuple) *Table {
	nb := bucketCount(len(tuples))
	t := &Table{
		shift:  32 - hashfn.Log2(nb),
		heads:  make([]int32, nb),
		next:   make([]int32, len(tuples)),
		tuples: tuples,
	}
	for b := range t.heads {
		t.heads[b] = -1
	}
	for i, tp := range tuples {
		b := hashfn.Mix32(uint32(tp.Key)) >> t.shift
		t.next[i] = t.heads[b]
		t.heads[b] = int32(i)
	}
	return t
}

// bucketCount returns the bucket count for n tuples: the next power of two,
// clamped below at one. The seed forced a 2-bucket minimum, which made the
// head-clear loop and bucket hashing pure overhead on the 1-tuple
// partitions that dominate high-fanout task counts; a single bucket (shift
// 32, so every key maps to bucket 0) serves those exactly as well.
func bucketCount(n int) int {
	nb := hashfn.NextPow2(n)
	if nb < 1 {
		nb = 1
	}
	return nb
}

// Probe walks the chain of k's bucket, invoking fn for every tuple whose
// key equals k, and returns the number of chain nodes visited (the probe
// cost, used by the GPU divergence model).
//
//skewlint:hotpath
func (t *Table) Probe(k relation.Key, fn func(pr relation.Payload)) int {
	visited := 0
	for i := t.heads[hashfn.Mix32(uint32(k))>>t.shift]; i >= 0; i = t.next[i] {
		visited++
		if sanitize.Enabled && visited > len(t.tuples) {
			sanitize.Failf("chainedtable: cycle in bucket chain for key %d (visited %d nodes, table holds %d tuples)",
				k, visited, len(t.tuples))
		}
		if t.tuples[i].Key == k {
			fn(t.tuples[i].Payload)
		}
	}
	return visited
}

// Concurrent is a shared chained hash table built by multiple threads.
// Insertion pushes onto the bucket head with a CAS loop, the standard
// latch-free technique no-partition joins use.
type Concurrent struct {
	shift  uint32
	heads  []atomic.Int32
	next   []int32
	tuples []relation.Tuple
}

// NewConcurrent allocates a concurrent table sized for the given tuple
// slice. Tuples are inserted afterwards via Insert, typically from many
// threads over disjoint index ranges.
func NewConcurrent(tuples []relation.Tuple) *Concurrent {
	nb := bucketCount(len(tuples))
	c := &Concurrent{
		shift:  32 - hashfn.Log2(nb),
		heads:  make([]atomic.Int32, nb),
		next:   make([]int32, len(tuples)),
		tuples: tuples,
	}
	for b := range c.heads {
		c.heads[b].Store(-1)
	}
	return c
}

// Insert links tuple index i into its bucket. Each index must be inserted
// exactly once; different threads must insert disjoint indexes.
//
//skewlint:hotpath
func (c *Concurrent) Insert(i int) {
	b := hashfn.Mix32(uint32(c.tuples[i].Key)) >> c.shift
	for {
		old := c.heads[b].Load()
		c.next[i] = old
		if c.heads[b].CompareAndSwap(old, int32(i)) {
			return
		}
	}
}

// Probe walks the chain of k's bucket, invoking fn for matches, and returns
// the number of nodes visited. Probe must not run concurrently with Insert.
//
//skewlint:hotpath
func (c *Concurrent) Probe(k relation.Key, fn func(pr relation.Payload)) int {
	visited := 0
	for i := c.heads[hashfn.Mix32(uint32(k))>>c.shift].Load(); i >= 0; i = c.next[i] {
		visited++
		if sanitize.Enabled && visited > len(c.tuples) {
			sanitize.Failf("chainedtable: cycle in bucket chain for key %d (visited %d nodes, table holds %d tuples)",
				k, visited, len(c.tuples))
		}
		if c.tuples[i].Key == k {
			fn(c.tuples[i].Payload)
		}
	}
	return visited
}
