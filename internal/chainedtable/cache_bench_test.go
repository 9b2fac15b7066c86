package chainedtable

import (
	"fmt"
	"math/rand"
	"testing"

	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// BenchmarkChainWalkVsSequentialScan contrasts the two per-output code
// paths the paper compares: the paper's Cbase emits each result after a
// hash-chain step plus key comparison, while CSH's skew path emits results
// from a sequential scan of the skewed R array with no comparison. The
// chain is one key's, in a Concurrent whose tuples are inserted in a
// seeded shuffled order: a chain linked in tuple order would be walked at
// a fixed stride the hardware prefetcher follows, while a shuffled one
// makes every step a load whose address depends on the previous one, as
// in a table built from unordered input.
//
// The gap between the two is the per-output speedup ceiling of CSH over
// Cbase, and it widens with the working-set size: small chains are
// cache-resident, but once the chain's next[]/tuple arrays spill out of
// cache each step is a dependent memory miss. The paper's 8x (32M
// tuples, 1.79M-tuple chains) lives in that out-of-cache regime; this
// benchmark shows where the current host sits at each size (DESIGN.md
// §1, EXPERIMENTS.md §Deviations).
func BenchmarkChainWalkVsSequentialScan(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 21} {
		tuples := make([]relation.Tuple, size)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: 42, Payload: relation.Payload(i)}
		}
		payloads := make([]relation.Payload, size)
		for i := range payloads {
			payloads[i] = relation.Payload(i)
		}

		b.Run(fmt.Sprintf("chainwalk/size=%d", size), func(b *testing.B) {
			table := NewConcurrent(tuples)
			for _, i := range rand.New(rand.NewSource(int64(size))).Perm(size) {
				table.Insert(i)
			}
			scratch := make([]relation.Payload, size)
			b.SetBytes(int64(size) * relation.TupleSize)
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				m, _ := table.Matches(42, scratch)
				sink += len(m)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("seqscan/size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size) * 4)
			var sink relation.Payload
			for i := 0; i < b.N; i++ {
				for _, p := range payloads {
					sink += p
				}
			}
			_ = sink
		})
	}
}

// BenchmarkBuild measures table construction across partition sizes —
// the per-task cost a join pays before probing: the compact table the CPU
// join phase builds, and the run table the simulated GPU kernels build
// over the same buckets.
func BenchmarkBuild(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 14, 1 << 18} {
		tuples := make([]relation.Tuple, size)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: relation.Key(i * 2654435761), Payload: relation.Payload(i)}
		}
		b.Run(fmt.Sprintf("compact/size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size) * relation.TupleSize)
			for i := 0; i < b.N; i++ {
				BuildCompact(tuples)
			}
		})
		b.Run(fmt.Sprintf("runs/size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size) * relation.TupleSize)
			for i := 0; i < b.N; i++ {
				BuildRuns(tuples)
			}
		})
	}
}

// BenchmarkProbe guards the join phase's probe loop against regressions:
// each probing tuple's bucket emitted through PushMatches into an output
// ring, as joinphase does, on a mixed-key workload (every tuple distinct
// key, ~1 entry per visit) and a fully skewed one (every probe scans the
// whole bucket and emits all of it). Cbase and CSH spend most of their
// join phase in this loop, so any extra work per bucket entry or per
// result shows up here immediately.
func BenchmarkProbe(b *testing.B) {
	const size = 1 << 14
	for _, skewed := range []bool{false, true} {
		name := "distinct-keys"
		if skewed {
			name = "one-hot-key"
		}
		b.Run(name, func(b *testing.B) {
			tuples := make([]relation.Tuple, size)
			for i := range tuples {
				k := relation.Key(i * 2654435761)
				if skewed {
					k = 42
				}
				tuples[i] = relation.Tuple{Key: k, Payload: relation.Payload(i)}
			}
			probes := tuples
			if skewed {
				probes = tuples[:1]
			}
			table := BuildCompact(tuples)
			buf := outbuf.New(0)
			b.SetBytes(int64(size) * relation.TupleSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tp := range probes {
					buf.PushMatches(tp.Key, table.Bucket(tp.Key), tp.Payload)
				}
			}
			if buf.Count() != uint64(b.N)*size {
				b.Fatalf("emitted %d results, want %d", buf.Count(), uint64(b.N)*size)
			}
		})
	}
}
