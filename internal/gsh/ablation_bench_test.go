package gsh

import (
	"fmt"
	"testing"

	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

// Ablation benchmarks for GSH's design decisions (DESIGN.md §4).

func ablationWorkload(b *testing.B, theta float64) (r, s relation.Relation) {
	b.Helper()
	const n = 1 << 16
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return g.Pair(n)
}

// BenchmarkAblationTopK sweeps the per-large-partition skewed key count.
// The paper found k=3 sufficient to shrink the remaining normal partition
// under the shared-memory budget; smaller k leaves skewed keys in the
// NM-join, larger k pays extra division work for no benefit.
func BenchmarkAblationTopK(b *testing.B) {
	r, s := ablationWorkload(b, 1.0)
	for _, k := range []int{1, 2, 3, 5, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				res = Join(r, s, Config{TopK: k})
			}
			b.ReportMetric(float64(res.Phases.Total().Microseconds()), "modelled-us")
			b.ReportMetric(float64(res.Stats.SkewedKeys), "skewed-keys")
		})
	}
}

// BenchmarkAblationDetectBefore compares GSH's detect-after-partition
// design against the CSH-style detect-before alternative under the GPU
// cost model — the §IV-B argument quantified.
func BenchmarkAblationDetectBefore(b *testing.B) {
	for _, theta := range []float64{0.5, 1.0} {
		r, s := ablationWorkload(b, theta)
		for _, before := range []bool{false, true} {
			name := fmt.Sprintf("zipf=%.1f/detect=after", theta)
			if before {
				name = fmt.Sprintf("zipf=%.1f/detect=before", theta)
			}
			b.Run(name, func(b *testing.B) {
				var res Result
				for i := 0; i < b.N; i++ {
					res = Join(r, s, Config{DetectBefore: before})
				}
				b.ReportMetric(float64(res.Phases.Total().Microseconds()), "modelled-us")
				b.ReportMetric(float64(res.Phases[0].Duration.Microseconds()), "partition-us")
			})
		}
	}
}

// BenchmarkAblationSampleRate sweeps GSH's per-partition sample rate.
func BenchmarkAblationSampleRate(b *testing.B) {
	r, s := ablationWorkload(b, 1.0)
	for _, rate := range []float64{0.001, 0.01, 0.1} {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				res = Join(r, s, Config{SampleRate: rate})
			}
			b.ReportMetric(float64(res.Phases.Total().Microseconds()), "modelled-us")
		})
	}
}
