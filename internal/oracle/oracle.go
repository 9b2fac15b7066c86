// Package oracle computes the ground-truth join result summary against
// which every algorithm in this repository is verified.
//
// Materialising the full join output is impossible under high skew (the
// output is Θ(N²·Σp²) tuples), so the oracle exploits the linearity of the
// outbuf checksum: grouping by key k with cntR(k)/cntS(k) occurrences and
// payload sums ΣpR(k)/ΣpS(k),
//
//	count    = Σ_k cntR(k)·cntS(k)
//	checksum = Σ_k [ A·k·cntR(k)·cntS(k)
//	               + B·ΣpR(k)·cntS(k)
//	               + C·ΣpS(k)·cntR(k) ]
//
// both computable in O(|R| + |S|). For small inputs ReferenceJoin also
// materialises the output with a nested loop for exact, order-normalised
// comparison in tests.
package oracle

import (
	"sort"

	"skewjoin/internal/exec"
	"skewjoin/internal/hashfn"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

type keyAgg struct {
	cnt  uint64
	psum uint64
}

// Expected returns the exact output count and checksum of the equi-join of
// r and s under the outbuf checksum definition.
func Expected(r, s relation.Relation) outbuf.Summary {
	return expected(r, s, func(relation.Key) bool { return true })
}

// ExpectedParallel is Expected with the per-key aggregation sharded over
// `threads` workers by key hash: every worker scans both relations but
// aggregates (and joins) only its own shard of the key space, so the
// expensive map operations parallelise without any merging. Threads <= 1
// falls back to Expected.
//
//skewlint:ignore ctx-propagation -- verification-only path; oracle runs must never be cut short or they would report a wrong expected summary
func ExpectedParallel(r, s relation.Relation, threads int) outbuf.Summary {
	if threads <= 1 {
		return Expected(r, s)
	}
	partial := make([]outbuf.Summary, threads)
	exec.Parallel(threads, func(w int) {
		partial[w] = expected(r, s, func(k relation.Key) bool {
			return int(hashfn.Mix32(uint32(k))>>16)%threads == w
		})
	})
	var total outbuf.Summary
	for _, p := range partial {
		total.Count += p.Count
		total.Checksum += p.Checksum
	}
	return total
}

// expected joins the keys that keep accepts. It aggregates R per key in
// one map, then streams S: an S tuple of key k adds cntR(k) results and
// A·k·cntR(k) + B·ΣpR(k) + C·p·cntR(k) to the checksum, so summed over
// k's S tuples it adds the package doc's per-key terms. The map grows to
// R's distinct keys, so its size follows the keys, not the tuples.
func expected(r, s relation.Relation, keep func(relation.Key) bool) outbuf.Summary {
	ra := make(map[relation.Key]keyAgg)
	for _, t := range r.Tuples {
		if keep(t.Key) {
			agg := ra[t.Key]
			agg.cnt++
			agg.psum += uint64(t.Payload)
			ra[t.Key] = agg
		}
	}
	a, bcoef, c := outbuf.ChecksumCoefficients()
	var sum outbuf.Summary
	for _, t := range s.Tuples {
		rv, ok := ra[t.Key]
		if !ok {
			continue
		}
		sum.Count += rv.cnt
		sum.Checksum += a*uint64(t.Key)*rv.cnt + bcoef*rv.psum + c*uint64(t.Payload)*rv.cnt
	}
	return sum
}

// ReferenceJoin materialises the full join output with a hash-partitioned
// nested evaluation. Only for small test inputs: the result is O(output).
// Results are returned in a canonical sorted order so two materialised
// outputs can be compared with reflect.DeepEqual regardless of the order an
// algorithm emitted them in.
func ReferenceJoin(r, s relation.Relation) []outbuf.Result {
	byKey := make(map[relation.Key][]relation.Payload, r.Len())
	for _, t := range r.Tuples {
		byKey[t.Key] = append(byKey[t.Key], t.Payload)
	}
	var out []outbuf.Result
	for _, ts := range s.Tuples {
		for _, pr := range byKey[ts.Key] {
			out = append(out, outbuf.Result{Key: ts.Key, PayloadR: pr, PayloadS: ts.Payload})
		}
	}
	SortResults(out)
	return out
}

// SortResults orders results canonically by (key, payloadR, payloadS).
func SortResults(rs []outbuf.Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Key != rs[j].Key {
			return rs[i].Key < rs[j].Key
		}
		if rs[i].PayloadR != rs[j].PayloadR {
			return rs[i].PayloadR < rs[j].PayloadR
		}
		return rs[i].PayloadS < rs[j].PayloadS
	})
}

// SummaryOf computes the outbuf summary of a materialised result set, for
// cross-checking ReferenceJoin against Expected in the oracle's own tests.
func SummaryOf(rs []outbuf.Result) outbuf.Summary {
	var s outbuf.Summary
	s.Count = uint64(len(rs))
	for _, t := range rs {
		s.Checksum += outbuf.ChecksumTerm(t.Key, t.PayloadR, t.PayloadS)
	}
	return s
}
