package bench

import (
	"fmt"
	"io"

	"skewjoin/internal/cbase"
	"skewjoin/internal/gbase"
	"skewjoin/internal/gsh"
	"skewjoin/internal/relation"
)

// Analysis quantifies the paper's §III diagnosis of *why* the baselines
// degrade under skew, per zipf factor: the frequency of the most popular
// key in R, the longest hash chain a Cbase build table sees, the output
// share of Cbase's single largest join task (its load-balancing failure),
// the sub-list blocks Gbase spawns and the extra S probes they cost, the
// SIMT lane-slots Gbase wastes to divergence, and the skewed keys and R
// tuples GSH detects and diverts.
func Analysis(cfg Config) (*Artifact, error) {
	return Run(cfg, &Sweep{
		Name: "analysis", Zipfs: cfg.zipfs(figureZipfs), Repeats: 1, Arms: arms("diagnosis"),
		Measure: func(w *Workload, _ Group, _ Arm) (Sample, error) {
			// Task splitting is disabled so MaxTaskOutput measures the
			// output share of the largest *partition pair* — the unit skew
			// handling cannot break up (§III: same-key tuples always
			// co-locate).
			cb := cbase.Join(w.R, w.S, cbase.Config{Threads: cfg.Threads, SkewFactor: -1})
			share := 0.0
			if cb.Summary.Count > 0 {
				share = float64(cb.Stats.Join.MaxTaskOutput) / float64(cb.Summary.Count)
			}
			gb := gbase.Join(w.R, w.S, gbase.Config{Device: cfg.Device})
			gs := gsh.Join(w.R, w.S, gsh.Config{Device: cfg.Device})
			return Sample{Clock: cb.Phases.Total(), Out: &cb.Summary, Metrics: []Metric{
				{Name: "top_key_freq", Value: relation.ComputeStats(w.R).MaxKeyFreq},
				{Name: "max_chain", Value: cb.Stats.Join.MaxChain},
				{Name: "max_task_share", Value: share},
				{Name: "gbase_sub_lists", Value: gb.Stats.SubListBlocks},
				{Name: "gbase_s_reprobes", Value: gb.Stats.SReprobes},
				{Name: "gbase_divergence", Value: gb.Stats.Sim.DivergenceWasted},
				{Name: "gsh_skewed_keys", Value: gs.Stats.SkewedKeys},
				{Name: "gsh_skewed_tuples_r", Value: gs.Stats.SkewedTuplesR},
			}}, nil
		},
		Print: printAnalysis,
	})
}

func printAnalysis(w io.Writer, a *Artifact) {
	fmt.Fprintln(w, "== Skew analysis (the paper's §III diagnosis, quantified) ==")
	fmt.Fprintf(w, "%-6s %10s %10s %12s %10s %12s %12s %9s %12s\n",
		"zipf", "top-key", "max-chain", "max-task", "sub-lists", "S-reprobes",
		"divergence", "GSH-keys", "GSH-tuples")
	for _, c := range a.Cells {
		fmt.Fprintf(w, "%-6.1f %10.0f %10.0f %11.1f%% %10.0f %12.0f %12.0f %9.0f %12.0f\n",
			c.Zipf, c.num("top_key_freq"), c.num("max_chain"), 100*c.num("max_task_share"),
			c.num("gbase_sub_lists"), c.num("gbase_s_reprobes"), c.num("gbase_divergence"),
			c.num("gsh_skewed_keys"), c.num("gsh_skewed_tuples_r"))
	}
}
