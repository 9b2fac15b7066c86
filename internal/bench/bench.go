package bench

import (
	"fmt"
	"io"
	"time"

	"skewjoin/internal/cbase"
	"skewjoin/internal/csh"
	"skewjoin/internal/exec"
	"skewjoin/internal/gbase"
	"skewjoin/internal/gsh"
	"skewjoin/internal/gsmj"
	"skewjoin/internal/npj"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/smj"
)

// join measures the join algorithm its arm names. The clock is the run's
// total time — wall-clock for the CPU algorithms, modelled device time for
// the GPU ones — and its phases are the metric the figures' rows read;
// modelled phases must repeat exactly.
func (cfg Config) join(w *Workload, _ Group, a Arm) (Sample, error) {
	var (
		phases   []exec.Phase
		out      outbuf.Summary
		modelled = true
	)
	switch a.Name {
	case "cbase":
		res := cbase.Join(w.R, w.S, cbase.Config{Threads: cfg.Threads})
		phases, out, modelled = res.Phases, res.Summary, false
	case "cbase-npj":
		res := npj.Join(w.R, w.S, npj.Config{Threads: cfg.Threads})
		phases, out, modelled = res.Phases, res.Summary, false
	case "csh":
		res := csh.Join(w.R, w.S, csh.Config{Threads: cfg.Threads})
		phases, out, modelled = res.Phases, res.Summary, false
	case "smj":
		res := smj.Join(w.R, w.S, smj.Config{Threads: cfg.Threads})
		phases, out, modelled = res.Phases, res.Summary, false
	case "gbase":
		res := gbase.Join(w.R, w.S, gbase.Config{Device: cfg.Device})
		phases, out = res.Phases, res.Summary
	case "gsh":
		res := gsh.Join(w.R, w.S, gsh.Config{Device: cfg.Device})
		phases, out = res.Phases, res.Summary
	case "gsh-paper": // the paper's skew-join scheme, without S tiling
		res := gsh.Join(w.R, w.S, gsh.Config{Device: cfg.Device, STileTuples: -1})
		phases, out = res.Phases, res.Summary
	case "gsmj":
		res := gsmj.Join(w.R, w.S, gsmj.Config{Device: cfg.Device})
		phases, out = res.Phases, res.Summary
	default:
		return Sample{}, fmt.Errorf("unknown algorithm %q", a.Name)
	}
	ps := make(map[string]int64, len(phases))
	var total time.Duration
	for _, p := range phases {
		ps[p.Name] += p.Duration.Nanoseconds()
		total += p.Duration
	}
	return Sample{Clock: total, Modelled: modelled, Out: &out,
		Metrics: []Metric{{Name: "phases_ns", Value: ps, Fixed: modelled}}}, nil
}

// arms names the arms of a sweep that only varies the algorithm.
func arms(names ...string) []Arm {
	as := make([]Arm, len(names))
	for i, n := range names {
		as[i].Name = n
	}
	return as
}

// phase is a row value: the summed duration of the named phases.
func phase(names ...string) func(c *Cell) time.Duration {
	return func(c *Cell) time.Duration { return c.phases(names...) }
}

// figure runs a grid experiment: every arm once per zipf.
func figure(cfg Config, name, title string, zipfs []float64, as []Arm, rows ...Row) (*Artifact, error) {
	return Run(cfg, &Sweep{Name: name, Title: title, Zipfs: zipfs, Repeats: 1, Arms: as, Measure: cfg.join, Rows: rows})
}

// Fig1 reproduces Figure 1: the execution times of the two baselines,
// broken into partition and join phases, as the zipf factor grows. It
// demonstrates the paper's motivating observation — partition time is flat
// while join time rockets.
func Fig1(cfg Config) (*Artifact, error) {
	return figure(cfg, "fig1", "Figure 1: performance impact of skewed join keys (baselines)",
		cfg.zipfs(figureZipfs), arms("cbase", "gbase"),
		Row{"Cbase partition", "cbase", phase("partition")},
		Row{"Cbase join", "cbase", phase("join")},
		Row{"Gbase partition", "gbase", phase("partition")},
		Row{"Gbase join", "gbase", phase("join")})
}

// Fig4a reproduces Figure 4a: total CPU join time (Cbase, cbase-npj, CSH)
// varying the zipf factor.
func Fig4a(cfg Config) (*Artifact, error) {
	return figure(cfg, "fig4a", "Figure 4a: CPU hash join performance varying the zipf factor",
		cfg.zipfs(figureZipfs), arms("cbase", "cbase-npj", "csh"),
		Row{"Cbase", "cbase", nil}, Row{"cbase-npj", "cbase-npj", nil}, Row{"CSH", "csh", nil})
}

// Fig4b reproduces Figure 4b: total (modelled) GPU join time (Gbase, GSH)
// varying the zipf factor.
func Fig4b(cfg Config) (*Artifact, error) {
	return figure(cfg, "fig4b", "Figure 4b: GPU hash join performance varying the zipf factor",
		cfg.zipfs(figureZipfs), arms("gbase", "gsh"),
		Row{"Gbase", "gbase", nil}, Row{"GSH", "gsh", nil})
}

// Table1 reproduces Table I: the execution-time breakdown of all four
// partitioned joins for zipf factors 0.5–1.0, with the paper's exact rows.
func Table1(cfg Config) (*Artifact, error) {
	return figure(cfg, "table1", "Table I: execution time breakdown",
		cfg.zipfs(tableZipfs), arms("cbase", "csh", "gbase", "gsh"),
		Row{"Cbase partition", "cbase", phase("partition")},
		Row{"Cbase join", "cbase", phase("join")},
		// CSH's sample+part includes all skewed-tuple result generation.
		Row{"CSH sample+part", "csh", phase("sample", "partition")},
		Row{"CSH NM-join", "csh", phase("nmjoin")},
		Row{"Gbase partition", "gbase", phase("partition")},
		Row{"Gbase join", "gbase", phase("join")},
		Row{"GSH partition", "gsh", phase("partition")},
		// GSH's all other: detection, division, NM-join and skew-join all
		// process skewed tuples toward join results.
		Row{"GSH all other", "gsh", func(c *Cell) time.Duration {
			return time.Duration(c.BestNS) - c.phases("partition", "transfer")
		}})
}

// Speedup summarises the paper's headline claims: the improvement of CSH
// over Cbase and of GSH over Gbase across the medium-to-high skew range
// (paper: up to 8.0x and 13.5x for zipf 0.5–1.0). The CPU joins keep the
// best of Config.Repeats runs; the modelled GPU times are deterministic
// and run once.
func Speedup(cfg Config) (*Artifact, error) {
	return Run(cfg, &Sweep{Name: "speedup", Zipfs: cfg.zipfs(tableZipfs),
		Arms: arms("cbase", "csh", "gbase", "gsh"), Measure: cfg.join, Print: printSpeedup})
}

// speedups returns base's best over mine's best at every zipf.
func (a *Artifact) speedups(base, mine string) []float64 {
	out := make([]float64, len(a.sweep.Zipfs))
	for i, z := range a.sweep.Zipfs {
		out[i] = ratio(a.cell(z, base).BestNS, a.cell(z, mine).BestNS)
	}
	return out
}

func printSpeedup(w io.Writer, a *Artifact) {
	fmt.Fprintln(w, "== Speedups over the baselines (paper: up to 8.0x CPU, 13.5x GPU) ==")
	fmt.Fprintf(w, "%-14s", "zipf")
	for _, z := range a.sweep.Zipfs {
		fmt.Fprintf(w, "%9.1f", z)
	}
	fmt.Fprintln(w)
	var best [2]float64
	for i, pair := range [][3]string{{"CSH vs Cbase", "cbase", "csh"}, {"GSH vs Gbase", "gbase", "gsh"}} {
		fmt.Fprintf(w, "%-14s", pair[0])
		for _, v := range a.speedups(pair[1], pair[2]) {
			fmt.Fprintf(w, "%8.2fx", v)
			best[i] = max(best[i], v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "max CSH speedup: %.2fx, max GSH speedup: %.2fx\n", best[0], best[1])
}

// Large runs the §V-B scale-up experiment: bigger tables at zipf 0.7. The
// paper scales 32M-tuple tables to 560M (17.5x); this reproduction scales
// the configured size by 8x, which preserves the regime (see DESIGN.md §1).
func Large(cfg Config) (*Artifact, error) {
	n := cfg.Defaults().Tuples * 8
	return Run(cfg, &Sweep{Name: "large", Zipfs: []float64{0.7},
		Workload: func(_ int, theta float64, seed int64) (Workload, error) { return MakeWorkload(n, theta, seed) },
		Arms:     arms("cbase", "csh", "gbase", "gsh"), Measure: cfg.join,
		Config: map[string]any{"tuples": n}, Print: printLarge})
}

func printLarge(w io.Writer, a *Artifact) {
	d := func(arm string) string { return FormatDuration(time.Duration(a.cell(0.7, arm).BestNS)) }
	fmt.Fprintf(w, "== Scale-up experiment (zipf 0.7, %d tuples/table; paper: CSH 3.5x, GSH 10.4x) ==\n", a.Config["tuples"])
	fmt.Fprintf(w, "Cbase %s   CSH %s   -> %.2fx\n", d("cbase"), d("csh"), a.speedups("cbase", "csh")[0])
	fmt.Fprintf(w, "Gbase %s*  GSH %s*  -> %.2fx\n", d("gbase"), d("gsh"), a.speedups("gbase", "gsh")[0])
}

func ratio(base, mine int64) float64 {
	if mine <= 0 {
		return 0
	}
	return float64(base) / float64(mine)
}
