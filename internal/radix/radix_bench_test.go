package radix

import (
	"fmt"
	"testing"

	"skewjoin/internal/zipf"
)

// BenchmarkPasses is the pass-count ablation (DESIGN.md §4): the same
// total fanout reached in one, two or three passes. More passes mean more
// copies of the data but lower per-pass fanout — the radix join's
// TLB-pressure trade-off (on hardware with few TLB entries, high single-
// pass fanouts thrash; the benchmark exposes the copy-count side of the
// trade on any host).
func BenchmarkPasses(b *testing.B) {
	const n = 1 << 18
	g := zipf.MustNew(zipf.Config{Theta: 0.5, Universe: n, Seed: 42})
	src := g.NewRelation(n, 1).Tuples
	for _, tc := range []struct {
		name string
		bits []uint32
	}{
		{"1pass/2^12", []uint32{12}},
		{"2pass/2^12", []uint32{6, 6}},
		{"3pass/2^12", []uint32{4, 4, 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				MultiPass(src, 2, tc.bits)
			}
		})
	}
}

// BenchmarkPartitionThroughput measures the two-pass partitioner's
// tuples/sec at the defaults the joins use.
func BenchmarkPartitionThroughput(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18} {
		g := zipf.MustNew(zipf.Config{Theta: 0.8, Universe: n, Seed: 42})
		src := g.NewRelation(n, 1).Tuples
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				Partition(src, Config{Threads: 2, Bits1: 6, Bits2: 5}, nil)
			}
		})
	}
}
