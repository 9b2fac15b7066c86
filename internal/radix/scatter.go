// The scatter loop shared by every partition pass.
//
// Each tuple is written straight to its partition's output cursor, so each
// thread's segment lands in scan order inside every partition. Software
// write-combining (staging per-partition cache-line runs, as in Balkesen
// et al.'s radix join) was measured against this loop and lost in every
// cell of the raw-partitioner sweep at this repository's fanouts (2^5 to
// 2^11 per pass); DESIGN.md §4 records the decision.
package radix

import (
	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// scatter copies src[lo:hi] to out tuple-at-a-time, advancing the
// per-partition cursors cur (absolute indexes into out). With a non-nil
// div, ids holds the count scan's lookup of every source tuple (by
// absolute index); diverted tuples are handed to div.Handle (worker id w)
// instead of being scattered.
//
//skewlint:hotpath
func scatter(out, src []relation.Tuple, lo, hi int, cur []int, shift, bits uint32, div *Diverter, ids []int32, w int) {
	for i := lo; i < hi; i++ {
		t := src[i]
		if div != nil {
			if id := ids[i]; id >= 0 {
				if div.Handle != nil {
					div.Handle(w, t, id)
				}
				continue
			}
		}
		p := hashfn.Radix(t.Key, shift, bits)
		if sanitize.Enabled {
			checkScatter(int(p), len(cur), cur, len(out))
		}
		out[cur[p]] = t
		cur[p]++
	}
}

// checkScatter validates one scatter write: the partition index must be
// inside the pass fanout and the partition's cursor inside the output
// array. Either violation means a histogram/prefix-sum mismatch is about
// to corrupt a neighbouring partition's region.
func checkScatter(p, fanout int, cur []int, outLen int) {
	if p < 0 || p >= fanout {
		sanitize.Failf("radix: scatter partition %d outside pass fanout %d", p, fanout)
	}
	if cur[p] < 0 || cur[p] >= outLen {
		sanitize.Failf("radix: scatter cursor %d for partition %d outside output of %d tuples (region overrun)",
			cur[p], p, outLen)
	}
}
