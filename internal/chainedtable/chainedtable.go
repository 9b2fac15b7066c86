// Package chainedtable implements the hash tables the joins build.
//
// Both Cbase and Gbase use chained hashing (§III). All tuples with the same
// key hash into the same bucket, so a popular key produces one long bucket;
// probing it costs one key comparison per entry. That behaviour — the
// paper's central criticism of the baselines under skew — is what every
// table here reproduces: a probe's visit count is the length of its key's
// bucket, and the caller emits one probing tuple's matches with one output
// call. The CPU join phase probes a CompactTable through Bucket, which
// hands out the key's bucket as a slice; the output buffer compares every
// entry and writes each match into its ring as it finds it
// (outbuf.Buffer.PushMatches), in one pass, as the paper's Cbase does. The
// two chained tables find the matches with Matches instead: a chain is not
// a slice, so Matches walks it, compares every entry and collects the
// matching payloads into the caller's scratch, which the caller then emits
// as one run.
//
// Matches treats its dst argument as scratch: it overwrites dst from index
// 0 up to its capacity and returns the filled prefix. A scratch too short
// for one key's matches is replaced by a longer one (returned in its
// place), so a caller that keeps the returned scratch across probes
// allocates only while its hottest key so far outgrows it.
//
// Four tables share one bucketing (the high bits of the mixed key):
//
//   - CompactTable (compact.go): each bucket stored as one contiguous run.
//     The CPU join phase (Cbase, CSH's NM-join and the split executor's
//     CPU leg) builds one per join task through a per-worker Arena
//     (arena.go) that recycles its scratch across tasks;
//   - RunTable (runs.go): a CompactTable's buckets with each key's tuples
//     grouped, so Run hands out a key's matches as a slice of the table
//     without comparing or copying. The simulated GPU kernels
//     (gpupart.ProbeJoinBlock) build one per block; they charge the
//     paper's chain walk through its visit counts, and their output is
//     modelled, not measured, so the host need not pay the comparisons;
//   - Concurrent: a latch-free shared chained table built by many threads
//     with CAS head insertion (cbase-npj builds one over the whole of R);
//   - Incremental (incremental.go): a growable chained table for the
//     streaming symmetric join.
//
// A CompactTable, a RunTable and a Concurrent over the same tuples have the
// same buckets with the same members, so their probe visit counts agree,
// and so does the largest bucket (MaxChain) where a table reports it.
package chainedtable

import (
	"sync/atomic"

	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

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

// matchChain walks the index-linked chain that starts at i, collecting
// the payload of every tuple whose key equals k into dst, and returns the
// matches with the number of nodes visited. It is the chain walk of both
// chained tables (Concurrent, Incremental). Under the sanitize tag a walk
// longer than the table aborts: a cycle in the next links would otherwise
// spin forever.
//
//skewlint:hotpath
func matchChain(i int32, next []int32, tuples []relation.Tuple, k relation.Key, dst []relation.Payload) ([]relation.Payload, int) {
	dst = dst[:cap(dst)]
	n, visited := 0, 0
	for ; i >= 0; i = next[i] {
		visited++
		if sanitize.Enabled && visited > len(tuples) {
			sanitize.Failf("chainedtable: cycle in bucket chain for key %d (visited %d nodes, table holds %d tuples)",
				k, visited, len(tuples))
		}
		if tuples[i].Key == k {
			if n == len(dst) {
				dst = grow(dst)
			}
			dst[n] = tuples[i].Payload
			n++
		}
	}
	return dst[:n], visited
}

// grow returns a scratch twice as long as dst holding dst's entries: the
// fallback for a caller whose scratch is shorter than one key's matches.
func grow(dst []relation.Payload) []relation.Payload {
	g := make([]relation.Payload, 2*len(dst)+16)
	copy(g, dst)
	return g
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

// Matches collects k's matches into dst (see the package doc) and returns
// them with the number of chain nodes visited. It must not run
// concurrently with Insert.
//
//skewlint:hotpath
func (c *Concurrent) Matches(k relation.Key, dst []relation.Payload) ([]relation.Payload, int) {
	return matchChain(c.heads[hashfn.Mix32(uint32(k))>>c.shift].Load(), c.next, c.tuples, k, dst)
}
