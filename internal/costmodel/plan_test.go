package costmodel

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"skewjoin/internal/gpusim"
	"skewjoin/internal/radix"
	"skewjoin/internal/zipf"
)

// pinnedCalib is the calibration perfbench's coproc workload pins.
var pinnedCalib = Calibration{BuildNsPerTuple: 6.5, ProbeNsPerUnit: 5.5}

// partitionPair generates one seeded zipf pair and radix-partitions each
// side on one worker — what the split executor does at 2 threads, where
// R and S are partitioned concurrently on one worker each.
func partitionPair(tb testing.TB, n int, theta float64, seed int64, bits1, bits2 uint32) (pr, ps *radix.Partitioned) {
	tb.Helper()
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	r, s := g.Pair(n)
	rcfg := radix.Config{Threads: 1, Bits1: bits1, Bits2: bits2}
	return radix.Partition(r.Tuples, rcfg, nil), radix.Partition(s.Tuples, rcfg, nil)
}

// renderPlan prints every field of a plan: the placement lists as their
// lengths and an FNV-1a digest, each fragment, and every predicted time
// in its shortest exact form, so any change to any of them shows.
func renderPlan(p Plan) string {
	h := fnv.New64a()
	for _, list := range [][]int{p.CPUParts, {-1}, p.GPUParts} {
		for _, part := range list {
			fmt.Fprintf(h, "%d,", part)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cpu=%d gpu=%d parts=%#x frag=%d [", len(p.CPUParts), len(p.GPUParts), h.Sum64(), p.FragPart)
	for i, f := range p.Fragments {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v:%d-%d", f.Backend, f.Lo, f.Hi)
	}
	fmt.Fprintf(&b, "] cpuNs=%v gpuNs=%v xferNs=%v makespan=%v cpuOnly=%v gpuOnly=%v balanced=%v split=%v degenerate=%v reason=%q",
		p.CPUNs, p.GPUNs, p.TransferNs, p.MakespanNs, p.CPUOnlyNs, p.GPUOnlyNs, p.BalancedNs,
		p.Split, p.Degenerate, p.DegenerateReason)
	return b.String()
}

// TestPlanGolden pins the full plan — placement lists, fragments and
// every predicted time — for perfbench coproc's input (2^15 tuples per
// side, zipf 1.1, seed 5, coupled device, 2 threads, its pinned
// calibration, 6+5 radix bits) and for a uniform input on the A100 and a
// deep-skew one on the coupled device. Planner optimisations must leave
// these byte-identical: a plan that moves changes what the split
// executor runs and what its benchmarks compare.
func TestPlanGolden(t *testing.T) {
	golden := []struct {
		name  string
		theta float64
		dev   gpusim.Config
		want  string
	}{
		{"coproc", 1.1, gpusim.Coupled(), "cpu=1076 gpu=791 parts=0x1d2097336da00936 frag=785 " +
			"[cpu:0-581 cpu:581-1163 gpu:1163-1744 gpu:1744-2326 gpu:2326-2907 gpu:2907-3489 gpu:3489-4070 gpu:4070-4652] " +
			"cpuNs=4.39574310022583e+07 gpuNs=4.395742244146119e+07 xferNs=1.9521484e+07 makespan=4.39574310022583e+07 " +
			"cpuOnly=8.872815648608398e+07 gpuOnly=8.73253765119873e+07 balanced=4.392107197165246e+07 " +
			`split=true degenerate=cpu reason=""`},
		{"uniform-a100", 0, gpusim.A100(), "cpu=0 gpu=2048 parts=0x83181583bc4cc0cf frag=-1 [] " +
			"cpuNs=0 gpuNs=40836.23393434585 xferNs=36745.28 makespan=40836.23393434585 " +
			"cpuOnly=353521.83984375 gpuOnly=40836.23393434585 balanced=34946.80076363399 " +
			`split=false degenerate=gpu reason="min-win-threshold"`},
		{"deep-skew-coupled", 1.4, gpusim.Coupled(), "cpu=0 gpu=943 parts=0x3bc78ff1179363ea frag=785 " +
			"[cpu:0-1326 cpu:1326-2653 cpu:2653-3979 cpu:3979-5306 cpu:5306-6632 gpu:6632-7959 gpu:7959-9285 gpu:9285-10612] " +
			"cpuNs=1.9521288175341392e+08 gpuNs=1.9236473291096658e+08 xferNs=8.560583405156426e+07 makespan=1.9521288175341392e+08 " +
			"cpuOnly=3.91474669464386e+08 gpuOnly=4.225760002474743e+08 balanced=1.9371133457727307e+08 " +
			`split=true degenerate=cpu reason=""`},
	}
	for _, g := range golden {
		pr, ps := partitionPair(t, 1<<15, g.theta, 5, 6, 5)
		cfg := Config{Device: g.dev, Calib: pinnedCalib, Threads: 2}
		if got := renderPlan(BuildPlan(Costs(pr, ps, cfg), cfg)); got != g.want {
			t.Errorf("%s plan changed:\n got %s\nwant %s", g.name, got, g.want)
		}
	}
}

// TestPlanAllocsFlat bounds the allocations of costing and planning one
// join. The bound is the same at 2^5 and 2^11 partitions: the planner
// allocates per plan, never per partition. A plan takes about 70
// allocations at either fanout; one more per partition would exceed the
// bound even at 2^5.
func TestPlanAllocsFlat(t *testing.T) {
	const bound = 100
	for _, bits := range [][2]uint32{{5, 0}, {6, 5}} {
		pr, ps := partitionPair(t, 1<<15, 1.1, 5, bits[0], bits[1])
		for _, dev := range []gpusim.Config{gpusim.Coupled(), gpusim.A100()} {
			cfg := Config{Device: dev, Calib: pinnedCalib, Threads: 2}
			allocs := testing.AllocsPerRun(3, func() { BuildPlan(Costs(pr, ps, cfg), cfg) })
			if allocs > bound {
				t.Errorf("fanout %d, %d SMs: %.0f allocations per plan, want <= %d",
					pr.Fanout(), dev.NumSMs, allocs, bound)
			}
		}
	}
}

// planSink keeps BenchmarkPlan's result live.
var planSink Plan

// BenchmarkPlan times Costs plus BuildPlan on perfbench coproc's input,
// on both device profiles.
func BenchmarkPlan(b *testing.B) {
	pr, ps := partitionPair(b, 1<<15, 1.1, 5, 6, 5)
	for _, d := range []struct {
		name string
		dev  gpusim.Config
	}{{"coupled", gpusim.Coupled()}, {"a100", gpusim.A100()}} {
		cfg := Config{Device: d.dev, Calib: pinnedCalib, Threads: 2}
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planSink = BuildPlan(Costs(pr, ps, cfg), cfg)
			}
		})
	}
}
