// GPU-simulation A/B benchmark: the machine-readable perf baseline for
// the host-parallel gpusim overhaul. cmd/skewbench -exp gpu runs it and
// can write the result as BENCH_gpu.json, the artifact future PRs compare
// against.
//
// Each cell runs one GPU algorithm on one zipf workload under one
// HostParallelism setting and records both clocks: the *modelled* device
// time (which must be bit-identical across every variant — parallel host
// execution may never change simulated results) and the *wall-clock* time
// the host spent producing it (which is what HostParallelism improves).
// The seed/control pair re-measures the one-worker path twice — an A/A
// estimate of the harness noise floor against which the parallel speedups
// must be read.
package bench

import (
	"fmt"
	"io"
	"time"

	"skewjoin/internal/exec"
)

// gpuZipfs is the default skew sweep: uniform, the paper's medium point,
// and full skew (where one launch's blocks are most unbalanced and
// dynamic host scheduling matters most).
var gpuZipfs = []float64{0.0, 0.5, 1.0}

// gpuSweep measures every GPU algorithm (the groups) on one host worker
// (HostParallelism 0, the default), an A/A control re-measuring it, and
// one worker per host core (the arms; Par is the HostParallelism).
func gpuSweep(cfg Config) *Sweep {
	as := []Arm{{"seed(serial)", 0}, {"control(serial)", 0}}
	if n := exec.DefaultThreads(); n > 1 {
		as = append(as, Arm{fmt.Sprintf("par%d", n), n})
	}
	return &Sweep{
		Name: "gpu", Zipfs: cfg.zipfs(gpuZipfs), Arms: as,
		Twin: [2]string{"seed(serial)", "control(serial)"}, Warm: true,
		Groups: func(*Workload) ([]Group, error) {
			return []Group{{Label: "gbase"}, {Label: "gsh"}, {Label: "gsmj"}}, nil
		},
		Measure: func(w *Workload, g Group, a Arm) (Sample, error) {
			c := cfg
			c.Device.HostParallelism = a.Par.(int)
			start := time.Now()
			run, err := c.join(w, g, Arm{Name: g.Label})
			wall := time.Since(start)
			if err != nil {
				return run, err
			}
			// The modelled time, like its phases, is deterministic: pinned
			// by the first run, checked (not re-minimised) by every later
			// one. The runs are ranked by the host's wall clock.
			run.Metrics = append(run.Metrics, Metric{Name: "wall_ns", Value: wall.Nanoseconds()},
				Metric{Name: "modelled_ns", Value: run.Clock.Nanoseconds(), Fixed: true})
			run.Clock, run.Modelled = wall, false
			return run, nil
		},
		Gate:   gpuGate,
		Config: map[string]any{"host_cpus": exec.DefaultThreads()},
		Print:  printGPU,
	}
}

// GPUBench measures the GPU algorithms under the HostParallelism sweep.
func GPUBench(cfg Config) (*Artifact, error) { return Run(cfg, gpuSweep(cfg)) }

// gpuGate requires modelled time to agree across every variant of one
// (algo, zipf) group: host parallelism may change only the wall clock.
func gpuGate(group []Cell) []string {
	var errs []string
	for _, c := range group[1:] {
		if c.Metrics == nil || group[0].Metrics == nil {
			continue
		}
		if m, m0 := c.Metrics["modelled_ns"], group[0].Metrics["modelled_ns"]; m != m0 {
			errs = append(errs, fmt.Sprintf("%s %s @ zipf %.1f: modelled time %v ns differs from serial %v ns",
				c.Group, c.Arm, c.Zipf, m, m0))
		}
	}
	return errs
}

// printGPU renders one block per zipf factor, one line per algo/variant
// with both clocks and the speedup of each variant over the seed row of
// its (algo, zipf) group.
func printGPU(w io.Writer, a *Artifact) {
	fmt.Fprintf(w, "== GPU-simulation A/B benchmark (n=%v, host cpus=%v, best of %v) ==\n",
		a.Config["tuples"], a.Config["host_cpus"], a.Config["repeats"])
	fmt.Fprintf(w, "wall = host time simulating; modelled = simulated device time (identical across variants)\n")
	var seed Cell
	for i, c := range a.Cells {
		if i == 0 || c.Zipf != a.Cells[i-1].Zipf {
			fmt.Fprintf(w, "-- zipf %.1f --\n", c.Zipf)
		}
		if c.Arm == a.sweep.Arms[0].Name {
			seed = c
		}
		speedup := ""
		if seed.BestNS > 0 && c.BestNS > 0 {
			speedup = fmt.Sprintf("  %5.2fx", float64(seed.BestNS)/float64(c.BestNS))
		}
		fmt.Fprintf(w, "%-6s %-16s  wall %10s%s  modelled %10s\n",
			c.Group, c.Arm, FormatDuration(time.Duration(c.BestNS)), speedup, ns(c.num("modelled_ns")))
	}
}
