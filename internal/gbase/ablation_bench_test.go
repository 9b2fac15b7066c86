package gbase

import (
	"fmt"
	"testing"

	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

// BenchmarkAblationSubListSize sweeps Gbase's native skew knob: the
// sub-list granularity used to decompose skewed R partitions. Smaller
// sub-lists spread the build work over more blocks but multiply the
// S-side re-probing (every S tuple is probed once per sub-list), which is
// exactly why the paper finds the technique saturating under heavy skew.
func BenchmarkAblationSubListSize(b *testing.B) {
	const n = 1 << 16
	g, err := zipf.New(zipf.Config{Theta: 1.0, Universe: n, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	var r, s relation.Relation = g.NewRelation(n, 1), g.NewRelation(n, 2)
	for _, sub := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("sublist=%d", sub), func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				res = Join(r, s, Config{SubListTuples: sub})
			}
			b.ReportMetric(float64(res.Phases.Total().Microseconds()), "modelled-us")
			b.ReportMetric(float64(res.Stats.SReprobes), "s-reprobes")
		})
	}
}
