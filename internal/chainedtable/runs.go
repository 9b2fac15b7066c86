package chainedtable

import (
	"slices"

	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// RunTable is the build table of the simulated GPU kernels: a CompactTable's
// buckets with each bucket's tuples grouped by key, so that a probe hands
// out its key's matches as a slice of one shared payload array instead of
// comparing every entry and copying the matches. Within a group the tuples
// keep their input order, so a run is element for element what
// outbuf.Buffer.PushMatches writes from the CompactTable's bucket, and a
// bucket's length — the visit count the kernels charge — is the
// CompactTable's. Each group also carries its
// payloads' sum, so a summary-only output tape folds a run without reading
// it. The table is read-only once built, so its runs stay valid for as
// long as anyone holds them.
type RunTable struct {
	shift uint32
	// Bucket b is entries[starts[b]:starts[b+1]], as in a CompactTable,
	// but with each key's tuples contiguous: one group per key.
	starts  []int32
	entries []relation.Tuple
	// ends[i], for the first entry i of a group, is the group's end, so
	// the group's payloads are payloads[i:ends[i]], and sums[i] is their
	// sum mod 2^64.
	ends     []int32
	sums     []uint64
	payloads []relation.Payload
}

// BuildRuns constructs a run table over tuples, bucketed exactly as
// BuildCompact buckets them. The tuple slice is only read, not retained.
//
//skewlint:hotpath
func BuildRuns(tuples []relation.Tuple) *RunTable {
	shift, starts, entries, maxChain := bucketize(tuples, nil, nil)
	t := &RunTable{
		shift:    shift,
		starts:   starts,
		entries:  entries,
		ends:     make([]int32, len(entries)),
		sums:     make([]uint64, len(entries)),
		payloads: make([]relation.Payload, len(entries)),
	}
	// A bucket of one or two tuples is grouped already; the longer ones
	// share scratch sized to the largest bucket.
	var tmp []relation.Tuple
	var order []uint64
	for b := 0; b+1 < len(starts); b++ {
		if lo, hi := starts[b], starts[b+1]; hi-lo > 2 {
			if order == nil {
				tmp = make([]relation.Tuple, maxChain)
				order = make([]uint64, maxChain)
			}
			groupBucket(entries[lo:hi], tmp, order)
		}
	}
	// Equal keys share a bucket, so a group is a maximal stretch of equal
	// keys and never crosses into the next bucket. Walking backwards, each
	// entry takes its group's end and the sum of the payloads from it to
	// that end, which at the group's first entry is the group's sum.
	for i := len(entries) - 1; i >= 0; i-- {
		end, sum := int32(i+1), uint64(entries[i].Payload)
		if i+1 < len(entries) && entries[i+1].Key == entries[i].Key {
			end, sum = t.ends[i+1], sum+t.sums[i+1]
		}
		t.ends[i] = end
		t.sums[i] = sum
		t.payloads[i] = entries[i].Payload
	}
	if sanitize.Enabled {
		t.checkGroups()
	}
	return t
}

// groupBucket makes each key's tuples in bucket contiguous, keeping their
// input order, by sorting the bucket on (key, position): O(n log n) however
// many keys share the bucket, and one pass when the bucket is sorted
// already, as a bucket of one hot key is. tmp and order are scratch of at
// least len(bucket) entries.
//
//skewlint:hotpath
func groupBucket(bucket, tmp []relation.Tuple, order []uint64) {
	order = order[:len(bucket)]
	for i, e := range bucket {
		order[i] = uint64(e.Key)<<32 | uint64(i)
	}
	if slices.IsSorted(order) {
		return
	}
	slices.Sort(order)
	tmp = tmp[:len(bucket)]
	copy(tmp, bucket)
	for i, o := range order {
		bucket[i] = tmp[uint32(o)]
	}
}

// checkGroups verifies under the sanitize tag that the groups tile every
// bucket — walking a bucket group by group lands exactly on its end, and
// no key has two groups — and that each group's sum is its payloads'.
func (t *RunTable) checkGroups() {
	for b := 0; b+1 < len(t.starts); b++ {
		lo, hi := t.starts[b], t.starts[b+1]
		for i := lo; i < hi; i = t.ends[i] {
			if t.ends[i] <= i || t.ends[i] > hi {
				sanitize.Failf("chainedtable: group at %d ends at %d, outside bucket %d [%d, %d)",
					i, t.ends[i], b, lo, hi)
			}
			for j := t.ends[i]; j < hi; j++ {
				if t.entries[j].Key == t.entries[i].Key {
					sanitize.Failf("chainedtable: key %d has two groups in bucket %d (at %d and %d)",
						t.entries[i].Key, b, i, j)
				}
			}
			var sum uint64
			for _, p := range t.payloads[i:t.ends[i]] {
				sum += uint64(p)
			}
			if sum != t.sums[i] {
				sanitize.Failf("chainedtable: group at %d has sum %d, its payloads sum to %d", i, t.sums[i], sum)
			}
		}
	}
}

// Run returns k's matches — the payloads of every tuple with key k, in
// input order — as a slice of the table's payload array, their sum mod
// 2^64, and the number of tuples in k's bucket: the entries a
// CompactTable's Bucket hands a probe. The slice must not be modified.
//
//skewlint:hotpath
func (t *RunTable) Run(k relation.Key) ([]relation.Payload, uint64, int) {
	b := hashfn.Mix32(uint32(k)) >> t.shift
	lo, hi := t.starts[b], t.starts[b+1]
	for i := lo; i < hi; i = t.ends[i] {
		if t.entries[i].Key == k {
			end := t.ends[i]
			return t.payloads[i:end:end], t.sums[i], int(hi - lo)
		}
	}
	return nil, 0, int(hi - lo)
}
