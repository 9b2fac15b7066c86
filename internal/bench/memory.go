package bench

import (
	"fmt"
	"io"
	"runtime"
)

// Memory records the heap bytes each algorithm allocates for one join,
// per zipf factor. The paper's algorithms differ in working-set shape —
// Cbase ping-pongs two partition copies, CSH adds per-key skewed arrays,
// Gbase materialises bucket lists, GSH divides large partitions, SMJ
// keeps two sorted copies — and the report makes those costs visible
// relative to the input size.
func Memory(cfg Config) (*Artifact, error) {
	return Run(cfg, &Sweep{
		Name: "memory", Zipfs: cfg.zipfs(figureZipfs), Repeats: 1,
		Arms: arms("cbase", "cbase-npj", "csh", "gbase", "gsh", "smj"),
		Measure: func(w *Workload, g Group, a Arm) (Sample, error) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			run, err := cfg.join(w, g, a)
			runtime.ReadMemStats(&after)
			run.Metrics = append(run.Metrics, Metric{Name: "alloc_bytes", Value: after.TotalAlloc - before.TotalAlloc})
			return run, err
		},
		Config: map[string]any{"input_bytes": 2 * cfg.Defaults().Tuples * 8},
		Print:  printMemory,
	})
}

// printMemory renders allocations as multiples of the input size.
func printMemory(w io.Writer, a *Artifact) {
	input := float64(a.Config["input_bytes"].(int))
	fmt.Fprintf(w, "== Per-join heap allocations (x input size, input = %d MiB) ==\n", int(input)>>20)
	fmt.Fprintf(w, "%-12s", "zipf")
	for _, z := range a.sweep.Zipfs {
		fmt.Fprintf(w, "%9.1f", z)
	}
	fmt.Fprintln(w)
	for _, arm := range a.sweep.Arms {
		fmt.Fprintf(w, "%-12s", arm.Name)
		for _, z := range a.sweep.Zipfs {
			fmt.Fprintf(w, "%8.2fx", a.cell(z, arm.Name).num("alloc_bytes")/input)
		}
		fmt.Fprintln(w)
	}
}
