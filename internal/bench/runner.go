// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§III Figure 1, §V Figure 4 and Table I,
// and the §V-B scale-up experiment) and this repository's extension
// sweeps against its implementations, and verifies every run against the
// oracle.
//
// Every experiment is a Sweep: its zipf grid, the arms it measures, how
// one run is measured, and the gate its cells must pass. One runner, Run,
// does the shared work — it generates each workload, runs the arms
// interleaved across repeat rounds, checks every run against the oracle,
// keeps every run's time and the best one, computes each group's A/A
// spread — and every experiment emits the same Artifact.
//
// Experiment scale is configurable; the paper's 32M-tuple tables are far
// beyond this reproduction's host (see DESIGN.md §1), so the default is
// 256K tuples, overridable via Config.Tuples or the SKEWJOIN_TUPLES
// environment variable.
package bench

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"skewjoin/internal/asciiplot"
	"skewjoin/internal/exec"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

// DefaultTuples is the default table cardinality (per table).
const DefaultTuples = 1 << 18

// Config parameterises the experiments.
type Config struct {
	// Tuples per input table (0 = SKEWJOIN_TUPLES env or DefaultTuples).
	Tuples int
	// Threads for the CPU algorithms (0 = all available).
	Threads int
	// Seed for workload generation.
	Seed int64
	// Zipfs overrides the zipf factors an experiment sweeps. Nil keeps
	// each experiment's own grid: 0.0 .. 1.0 step 0.1 for the figures,
	// 0.5 .. 1.0 for Table I and the speedups, a few points chosen per
	// extension sweep.
	Zipfs []float64
	// Device configures the simulated GPU for the GPU runs (zero fields =
	// A100). Shrinking SharedMemBytes reproduces the paper's ratio of
	// skewed-key frequency to partition capacity at scaled-down table
	// sizes (see EXPERIMENTS.md).
	Device gpusim.Config
	// Repeats is the number of timed rounds of every arm, keeping the
	// fastest (default 3; the figure experiments run once unless it is
	// set). Wall-clock noise on shared hosts otherwise dominates the CPU
	// ratios.
	Repeats int
	// SplitMinWinNs lowers the split planner's absolute win floor for the
	// co-processing benchmark (0 = the engine default, 25ms). Smoke runs
	// at reduced table sizes set it to ~1ms so the planner still faces a
	// real decision instead of degenerating on the floor alone.
	SplitMinWinNs int64
}

// Defaults fills zero fields. It leaves Zipfs alone: an unset grid is how
// an experiment knows to use its own.
func (c Config) Defaults() Config {
	if c.Tuples <= 0 {
		c.Tuples = DefaultTuples
		if env := os.Getenv("SKEWJOIN_TUPLES"); env != "" {
			if n, err := strconv.Atoi(env); err == nil && n > 0 {
				c.Tuples = n
			}
		}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

// zipfs returns the caller's zipf list if one was given, else def.
func (c Config) zipfs(def []float64) []float64 {
	if len(c.Zipfs) > 0 {
		return c.Zipfs
	}
	return def
}

// figureZipfs is the figures' grid: 0.0 .. 1.0 step 0.1.
var figureZipfs = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// tableZipfs is the medium-to-high skew range of Table I and the speedups.
var tableZipfs = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Workload is one generated (R, S, expected-result) triple.
type Workload struct {
	Theta    float64
	R, S     relation.Relation
	Expected outbuf.Summary
}

// MakeWorkload generates the paper's workload for one zipf factor and
// computes its ground truth.
func MakeWorkload(n int, theta float64, seed int64) (Workload, error) {
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: seed})
	if err != nil {
		return Workload{}, err
	}
	r, s := g.Pair(n)
	w := Workload{Theta: theta, R: r, S: s, Expected: oracle.ExpectedParallel(r, s, exec.DefaultThreads())}
	// The oracle's frequency maps are garbage by now; collect them before
	// timing starts so CPU phase times are not polluted by GC pauses.
	runtime.GC()
	return w, nil
}

// Sweep declares one experiment. Everything it does not declare — the
// workloads, repeat rounds, oracle checks, best-of, A/A spreads and the
// artifact — is Run's.
type Sweep struct {
	// Name is the experiment's skewbench name; Title heads its table.
	Name, Title string
	// Zipfs is the grid, one workload per point.
	Zipfs []float64
	// Repeats is the sweep's own round count, used when Config.Repeats is
	// unset (the figures run each arm once by default).
	Repeats int
	// Workload generates one grid point's inputs (nil: MakeWorkload).
	Workload func(n int, theta float64, seed int64) (Workload, error)
	// Groups splits one workload into the groups every arm is measured
	// in (nil: a single group).
	Groups func(w *Workload) ([]Group, error)
	// Arms are measured in every group, in this order in round 0.
	Arms []Arm
	// Twin names the A/A control: the arm Twin[1] re-runs Twin[0]'s
	// setting, and the spread between the two is the group's noise floor.
	Twin [2]string
	// Warm runs every arm once, untimed, before a group's timed rounds.
	Warm bool
	// Measure runs one arm once.
	Measure func(w *Workload, g Group, a Arm) (Sample, error)
	// Gate checks one measured group and returns its violations.
	Gate func(group []Cell) []string
	// Rows lay a figure out as a grid, one line per row and one column
	// per zipf; Print renders any other layout.
	Rows  []Row
	Print func(w io.Writer, a *Artifact)
	// Config records the sweep's own settings in the artifact.
	Config map[string]any
}

// Arm is one measured setting of a sweep; Par is what the sweep varies
// (a host parallelism, a placement policy, a routing, an algorithm).
type Arm struct {
	Name string `json:"name"`
	Par  any    `json:"par,omitempty"`
}

// Group is one setting every arm is measured under, within one workload.
type Group struct {
	Label string
	Par   any
}

// Metric is one named value a run reports. A Fixed metric must repeat
// exactly across an arm's runs (modelled device time, a plan); a change
// is an error, never averaged away.
type Metric struct {
	Name  string
	Value any
	Fixed bool
}

// Sample is the outcome of one measured run.
type Sample struct {
	// Clock is what the runner ranks an arm's runs by, smallest best.
	Clock time.Duration
	// Modelled marks a clock that is simulated device time: it is
	// deterministic, so the arm runs in one round only.
	Modelled bool
	// Out is the run's output digest, checked against the oracle's; nil
	// for a limit-terminated prefix, whose termination Measure checks.
	Out     *outbuf.Summary
	Metrics []Metric
}

// Row is one line of a figure grid: the arm it reads and the value it
// shows of that arm's best run (nil: the ranking clock).
type Row struct {
	Name  string
	Arm   string
	Value func(c *Cell) time.Duration
}

// Cell is one arm measured in one group: every verified run's clock, the
// best one, and the best run's metrics.
type Cell struct {
	Zipf     float64        `json:"zipf"`
	Group    string         `json:"group,omitempty"`
	Arm      string         `json:"arm"`
	BestNS   int64          `json:"best_ns"`
	RunsNS   []int64        `json:"runs_ns"`
	Modelled bool           `json:"modelled,omitempty"`
	Metrics  map[string]any `json:"metrics,omitempty"`
}

// num reads a numeric metric of the cell's best run (0 when absent).
func (c *Cell) num(name string) float64 {
	switch v := c.Metrics[name].(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case uint64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// phases sums the named phases of the cell's best run.
func (c *Cell) phases(names ...string) time.Duration {
	ps, _ := c.Metrics["phases_ns"].(map[string]int64)
	var d int64
	for _, n := range names {
		d += ps[n]
	}
	return time.Duration(d)
}

// AA is one group's A/A control: Ratio is the twin's best over the arm's
// best, Spread how far the two best runs lie apart (max/min − 1).
type AA struct {
	Zipf   float64 `json:"zipf"`
	Group  string  `json:"group,omitempty"`
	Arm    string  `json:"arm"`
	Twin   string  `json:"twin"`
	Ratio  float64 `json:"ratio"`
	Spread float64 `json:"spread"`
}

// Env records the host and build an artifact was measured on.
type Env struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit and Modified come from the binary's VCS stamp; `go run`
	// stamps them only with -buildvcs=true.
	Commit   string `json:"commit"`
	Modified bool   `json:"modified"`
}

// Artifact is the result of every experiment, and the JSON skewbench
// writes with -out and -json.
type Artifact struct {
	Sweep  string         `json:"sweep"`
	Env    Env            `json:"env"`
	Config map[string]any `json:"config"`
	Cells  []Cell         `json:"cells"`
	AA     []AA           `json:"aa"`
	Errors []string       `json:"errors"`
	sweep  *Sweep
}

func hostEnv() Env {
	e := Env{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// Run executes a sweep. A run that errors or disagrees with the oracle is
// dropped and recorded in the artifact's Errors, as is every gate
// violation; only a workload or group that cannot be set up aborts.
func Run(cfg Config, s *Sweep) (*Artifact, error) {
	// An explicit Config.Repeats wins; a sweep's own count applies only
	// when the caller set none.
	if cfg.Repeats <= 0 {
		cfg.Repeats = s.Repeats
	}
	cfg = cfg.Defaults()
	repeats := cfg.Repeats
	conf := map[string]any{"tuples": cfg.Tuples, "seed": cfg.Seed, "threads": cfg.Threads,
		"repeats": repeats, "zipfs": s.Zipfs, "arms": s.Arms}
	for k, v := range s.Config {
		conf[k] = v
	}
	a := &Artifact{Sweep: s.Name, Env: hostEnv(), Config: conf, sweep: s}
	gen := s.Workload
	if gen == nil {
		gen = MakeWorkload
	}
	for _, z := range s.Zipfs {
		w, err := gen(cfg.Tuples, z, cfg.Seed)
		if err != nil {
			return nil, err
		}
		groups := []Group{{}}
		if s.Groups != nil {
			if groups, err = s.Groups(&w); err != nil {
				return nil, err
			}
		}
		for _, g := range groups {
			cells := a.measure(s, &w, g, repeats)
			if s.Gate != nil {
				a.Errors = append(a.Errors, s.Gate(cells)...)
			}
			if aa, ok := aaSpread(cells, s.Twin); ok {
				a.AA = append(a.AA, aa)
			}
			a.Cells = append(a.Cells, cells...)
		}
	}
	return a, nil
}

// measure runs one group: a warm-up per arm if the sweep asks for one,
// then repeats rounds in which every arm runs once, the start position
// rotating each round so host drift spreads evenly over the arms.
func (a *Artifact) measure(s *Sweep, w *Workload, g Group, repeats int) []Cell {
	cells := make([]Cell, len(s.Arms))
	for i, arm := range s.Arms {
		cells[i] = Cell{Zipf: w.Theta, Group: g.Label, Arm: arm.Name}
		if s.Warm { // untimed: first-touch costs belong to no arm
			if _, err := s.Measure(w, g, arm); err != nil {
				a.errorf(&cells[i], "warm-up: %v", err)
			}
		}
	}
	for round := 0; round < repeats; round++ {
		for k := range s.Arms {
			i := (round + k) % len(s.Arms)
			if cells[i].Modelled {
				continue
			}
			run, err := s.Measure(w, g, s.Arms[i])
			a.fold(&cells[i], w, run, err)
		}
	}
	return cells
}

// fold records one run in its cell: dropped with an error if it failed or
// its output disagrees with the oracle, otherwise its clock is kept and,
// if it is the fastest so far, its metrics too.
func (a *Artifact) fold(c *Cell, w *Workload, run Sample, err error) {
	if err == nil && run.Out != nil && *run.Out != w.Expected {
		err = fmt.Errorf("output %+v, expected %+v", *run.Out, w.Expected)
	}
	if err != nil {
		a.errorf(c, "%v", err)
		return
	}
	metrics := make(map[string]any, len(run.Metrics))
	for _, m := range run.Metrics {
		if prev := c.Metrics[m.Name]; m.Fixed && c.Metrics != nil && !reflect.DeepEqual(prev, m.Value) {
			a.errorf(c, "%s changed across repeats (%v vs %v)", m.Name, m.Value, prev)
		}
		metrics[m.Name] = m.Value
	}
	clock := run.Clock.Nanoseconds()
	c.RunsNS = append(c.RunsNS, clock)
	if len(c.RunsNS) == 1 || clock < c.BestNS {
		c.BestNS, c.Modelled, c.Metrics = clock, run.Modelled, metrics
	}
}

func (a *Artifact) errorf(c *Cell, format string, args ...any) {
	label := c.Arm
	if c.Group != "" {
		label = c.Group + " " + c.Arm
	}
	a.Errors = append(a.Errors, fmt.Sprintf("%s @ zipf %.2f: %s", label, c.Zipf, fmt.Sprintf(format, args...)))
}

// aaSpread compares a group's A/A pair; ok is false when the sweep has no
// twin or either arm has no verified run.
func aaSpread(group []Cell, twin [2]string) (aa AA, ok bool) {
	var arm, tw *Cell
	for i := range group {
		switch group[i].Arm {
		case twin[0]:
			arm = &group[i]
		case twin[1]:
			tw = &group[i]
		}
	}
	if arm == nil || tw == nil || arm.BestNS <= 0 || tw.BestNS <= 0 {
		return AA{}, false
	}
	r := float64(tw.BestNS) / float64(arm.BestNS)
	return AA{Zipf: arm.Zipf, Group: arm.Group, Arm: arm.Arm, Twin: tw.Arm, Ratio: r, Spread: max(r, 1/r) - 1}, true
}

// cell returns the cell of arm at zipf z (the first group's), or an empty
// cell when it is missing.
func (a *Artifact) cell(z float64, arm string) *Cell {
	for i := range a.Cells {
		if a.Cells[i].Zipf == z && a.Cells[i].Arm == arm {
			return &a.Cells[i]
		}
	}
	return &Cell{Zipf: z, Arm: arm}
}

// row returns a grid row's value at every zipf, and which are modelled.
func (a *Artifact) row(r Row) ([]time.Duration, []bool) {
	ds := make([]time.Duration, len(a.sweep.Zipfs))
	modelled := make([]bool, len(ds))
	for i, z := range a.sweep.Zipfs {
		c := a.cell(z, r.Arm)
		ds[i], modelled[i] = time.Duration(c.BestNS), c.Modelled
		if r.Value != nil {
			ds[i] = r.Value(c)
		}
	}
	return ds, modelled
}

// Fprint renders the artifact as text: the sweep's table, its A/A
// spread, then any verification failures.
func (a *Artifact) Fprint(w io.Writer) {
	if a.sweep.Print != nil {
		a.sweep.Print(w, a)
	} else {
		a.grid(w)
	}
	if len(a.AA) > 0 {
		worst := 0.0
		for _, aa := range a.AA {
			worst = max(worst, aa.Spread)
		}
		fmt.Fprintf(w, "A/A spread (%s vs %s, best runs): max %.1f%% over %d groups\n",
			a.sweep.Twin[1], a.sweep.Twin[0], 100*worst, len(a.AA))
	}
	for _, e := range a.Errors {
		fmt.Fprintf(w, "VERIFICATION FAILED: %s\n", e)
	}
	fmt.Fprintln(w)
}

// grid renders a figure: durations in engineering units, modelled
// values marked with '*'.
func (a *Artifact) grid(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", a.sweep.Title)
	fmt.Fprintf(w, "%-22s", "zipf")
	for _, z := range a.sweep.Zipfs {
		fmt.Fprintf(w, "%12.1f", z)
	}
	fmt.Fprintln(w)
	for _, r := range a.sweep.Rows {
		fmt.Fprintf(w, "%-22s", r.Name)
		ds, modelled := a.row(r)
		for i, d := range ds {
			s := FormatDuration(d)
			if modelled[i] {
				s += "*"
			}
			fmt.Fprintf(w, "%12s", s)
		}
		fmt.Fprintln(w)
	}
}

// Plot renders a figure's rows as a log-scale ASCII chart, making the
// figure shapes (flat partition lines, exploding join curves, crossovers)
// visible in a terminal. Experiments that are not grids have no chart.
func (a *Artifact) Plot(w io.Writer) {
	if len(a.sweep.Rows) == 0 {
		return
	}
	series := make([]asciiplot.Series, len(a.sweep.Rows))
	for i, r := range a.sweep.Rows {
		ds, _ := a.row(r)
		ys := make([]float64, len(ds))
		for j, d := range ds {
			ys[j] = d.Seconds()
		}
		series[i] = asciiplot.Series{Name: r.Name, Ys: ys}
	}
	asciiplot.Render(w, a.sweep.Title+" (log-scale seconds; GPU series are modelled)", a.sweep.Zipfs, series, 0)
}

// FormatDuration renders a duration with three significant figures in the
// most natural unit.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

// ns formats a nanosecond metric as a duration.
func ns(v float64) string { return FormatDuration(time.Duration(v)) }
