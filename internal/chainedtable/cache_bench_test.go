package chainedtable

import (
	"fmt"
	"testing"

	"skewjoin/internal/relation"
)

// BenchmarkChainWalkVsSequentialScan contrasts the two per-output code
// paths the paper compares: Cbase emits each result after a hash-chain
// step plus key comparison, while CSH's skew path emits results from a
// sequential scan of the skewed R array with no comparison.
//
// The gap between the two is the per-output speedup ceiling of CSH over
// Cbase, and it widens with the working-set size: small chains are
// cache-resident and chain-walking is only ~2-3x dearer than scanning, but
// once the chain's next[]/tuple arrays spill out of cache each step is a
// dependent memory miss. The paper's 8x (32M tuples, 1.79M-tuple chains)
// lives in that out-of-cache regime; this benchmark shows where the
// current host sits at each size (DESIGN.md §1, EXPERIMENTS.md
// §Deviations).
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
			table := Build(tuples)
			b.SetBytes(int64(size) * relation.TupleSize)
			var sink relation.Payload
			for i := 0; i < b.N; i++ {
				table.Probe(42, func(p relation.Payload) { sink += p })
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

// BenchmarkBuild measures compact-table construction across partition
// sizes — the per-task cost the join phase pays before probing.
func BenchmarkBuild(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 14, 1 << 18} {
		tuples := make([]relation.Tuple, size)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: relation.Key(i * 2654435761), Payload: relation.Payload(i)}
		}
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size) * relation.TupleSize)
			for i := 0; i < b.N; i++ {
				BuildCompact(tuples)
			}
		})
	}
}

// BenchmarkProbe guards the probe loop itself against regressions: a
// mixed-key workload (every tuple distinct key, ~1 entry per visit) and a
// fully skewed one (every probe scans the whole bucket). Cbase and CSH
// spend most of their join phase inside CompactTable.Probe, so any extra
// work per bucket entry shows up here immediately.
func BenchmarkProbe(b *testing.B) {
	const size = 1 << 14
	b.Run("distinct-keys", func(b *testing.B) {
		tuples := make([]relation.Tuple, size)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: relation.Key(i * 2654435761), Payload: relation.Payload(i)}
		}
		table := BuildCompact(tuples)
		b.SetBytes(int64(size) * relation.TupleSize)
		var sink relation.Payload
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tp := range tuples {
				table.Probe(tp.Key, func(p relation.Payload) { sink += p })
			}
		}
		_ = sink
	})
	b.Run("one-hot-key", func(b *testing.B) {
		tuples := make([]relation.Tuple, size)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: 42, Payload: relation.Payload(i)}
		}
		table := BuildCompact(tuples)
		b.SetBytes(int64(size) * relation.TupleSize)
		var sink relation.Payload
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			table.Probe(42, func(p relation.Payload) { sink += p })
		}
		_ = sink
	})
}

// BenchmarkMaxChain pins the largest-bucket scan, which runs once per join
// task right after the build: it must stay a pure scan with no allocation.
func BenchmarkMaxChain(b *testing.B) {
	for _, skewed := range []bool{false, true} {
		name := "distinct-keys"
		if skewed {
			name = "one-hot-key"
		}
		b.Run(name, func(b *testing.B) {
			const size = 1 << 14
			tuples := make([]relation.Tuple, size)
			for i := range tuples {
				k := relation.Key(i * 2654435761)
				if skewed {
					k = 42
				}
				tuples[i] = relation.Tuple{Key: k, Payload: relation.Payload(i)}
			}
			table := BuildCompact(tuples)
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += table.MaxChain()
			}
			_ = sink
		})
	}
}
