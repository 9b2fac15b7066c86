// Top-level benchmarks: one per table and figure of the paper's evaluation.
//
//	go test -bench=. -benchmem
//
// Benchmarks default to 32K-tuple tables so a full -bench=. run stays
// tractable on a laptop; set SKEWJOIN_BENCH_TUPLES to scale up. CPU
// algorithms are timed wall-clock by the benchmark itself; GPU algorithms
// additionally report the simulator's modelled device time as the
// "modelled-ms/op" metric (the quantity Figures 1/4b and Table I plot).
// The full-resolution sweeps (zipf 0.0..1.0 step 0.1) are produced by
// cmd/skewbench; these benchmarks sample the same grids at the paper's
// inflection points.
package skewjoin

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

func benchTuples() int {
	if env := os.Getenv("SKEWJOIN_BENCH_TUPLES"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	return 1 << 15
}

var benchZipfs = []float64{0.0, 0.5, 0.8, 1.0}

// sink prevents the compiler from eliding join results.
var sink uint64

func workloadPair(b *testing.B, n int, theta float64) (Relation, Relation) {
	b.Helper()
	r, s, err := GenerateZipfPair(n, theta, 42)
	if err != nil {
		b.Fatal(err)
	}
	return r, s
}

func runJoin(b *testing.B, alg Algorithm, r, s Relation, phases ...string) {
	b.Helper()
	var res Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Join(alg, r, s, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink += res.Matches
	}
	if res.Modelled {
		b.ReportMetric(float64(res.Total.Microseconds())/1000, "modelled-ms/op")
	}
	for _, ph := range phases {
		b.ReportMetric(float64(res.Phase(ph).Microseconds())/1000, ph+"-ms/op")
	}
	b.ReportMetric(float64(res.Matches), "results/op")
}

// BenchmarkFig1CbaseBreakdown regenerates Figure 1's CPU half: Cbase's
// partition and join phases as skew grows. The partition-ms metric stays
// flat while join-ms explodes.
func BenchmarkFig1CbaseBreakdown(b *testing.B) {
	n := benchTuples()
	for _, z := range benchZipfs {
		b.Run(fmt.Sprintf("zipf=%.1f", z), func(b *testing.B) {
			r, s := workloadPair(b, n, z)
			runJoin(b, Cbase, r, s, "partition", "join")
		})
	}
}

// BenchmarkFig1GbaseBreakdown regenerates Figure 1's GPU half: Gbase's
// modelled partition and join phases as skew grows.
func BenchmarkFig1GbaseBreakdown(b *testing.B) {
	n := benchTuples()
	for _, z := range benchZipfs {
		b.Run(fmt.Sprintf("zipf=%.1f", z), func(b *testing.B) {
			r, s := workloadPair(b, n, z)
			runJoin(b, Gbase, r, s, "partition", "join")
		})
	}
}

// BenchmarkFig4aCPU regenerates Figure 4a: total time of the three CPU
// joins across the zipf sweep.
func BenchmarkFig4aCPU(b *testing.B) {
	n := benchTuples()
	for _, alg := range []Algorithm{Cbase, CbaseNPJ, CSH} {
		for _, z := range benchZipfs {
			b.Run(fmt.Sprintf("%s/zipf=%.1f", alg, z), func(b *testing.B) {
				r, s := workloadPair(b, n, z)
				runJoin(b, alg, r, s)
			})
		}
	}
}

// BenchmarkFig4bGPU regenerates Figure 4b: modelled total time of the two
// GPU joins across the zipf sweep.
func BenchmarkFig4bGPU(b *testing.B) {
	n := benchTuples()
	for _, alg := range []Algorithm{Gbase, GSH} {
		for _, z := range benchZipfs {
			b.Run(fmt.Sprintf("%s/zipf=%.1f", alg, z), func(b *testing.B) {
				r, s := workloadPair(b, n, z)
				runJoin(b, alg, r, s)
			})
		}
	}
}

// BenchmarkTable1Breakdown regenerates Table I: the per-phase breakdown of
// all four partitioned joins at medium-to-high skew. The paper's rows map
// to the reported phase metrics (CSH sample+part = sample-ms + partition-ms;
// GSH all other = modelled total minus partition-ms).
func BenchmarkTable1Breakdown(b *testing.B) {
	n := benchTuples()
	zipfs := []float64{0.5, 0.8, 1.0}
	type entry struct {
		alg    Algorithm
		phases []string
	}
	entries := []entry{
		{Cbase, []string{"partition", "join"}},
		{CSH, []string{"sample", "partition", "nmjoin"}},
		{Gbase, []string{"partition", "join"}},
		{GSH, []string{"partition", "detect", "divide", "nmjoin", "skewjoin"}},
	}
	for _, e := range entries {
		for _, z := range zipfs {
			b.Run(fmt.Sprintf("%s/zipf=%.1f", e.alg, z), func(b *testing.B) {
				r, s := workloadPair(b, n, z)
				runJoin(b, e.alg, r, s, e.phases...)
			})
		}
	}
}

// BenchmarkLargeTables regenerates the §V-B scale-up experiment: 4x the
// default table size at zipf 0.7, where the paper reports CSH 3.5x over
// Cbase and GSH 10.4x over Gbase.
func BenchmarkLargeTables(b *testing.B) {
	n := benchTuples() * 4
	for _, alg := range []Algorithm{Cbase, CSH, Gbase, GSH} {
		b.Run(string(alg), func(b *testing.B) {
			r, s := workloadPair(b, n, 0.7)
			runJoin(b, alg, r, s)
		})
	}
}

// BenchmarkSortVsHashExtension runs the sort-merge extension against the
// paper's CPU joins at the sweep's endpoints (see EXPERIMENTS.md §Sort vs
// hash).
func BenchmarkSortVsHashExtension(b *testing.B) {
	n := benchTuples()
	for _, alg := range []Algorithm{Cbase, CSH, SMJ} {
		for _, z := range []float64{0.0, 1.0} {
			b.Run(fmt.Sprintf("%s/zipf=%.1f", alg, z), func(b *testing.B) {
				r, s := workloadPair(b, n, z)
				runJoin(b, alg, r, s)
			})
		}
	}
}

// BenchmarkSpeedupHeadline regenerates the headline claim at the highest
// skew point: CSH vs Cbase and GSH vs Gbase at zipf 1.0 (paper: up to 8.0x
// and 13.5x across zipf 0.5-1.0).
func BenchmarkSpeedupHeadline(b *testing.B) {
	n := benchTuples()
	for _, alg := range []Algorithm{Cbase, CSH, Gbase, GSH} {
		b.Run(string(alg)+"/zipf=1.0", func(b *testing.B) {
			r, s := workloadPair(b, n, 1.0)
			runJoin(b, alg, r, s)
		})
	}
}
