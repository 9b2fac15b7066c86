// Co-processing benchmark: the machine-readable artifact for the
// cost-model-driven CPU/GPU split executor. cmd/skewbench -exp coproc
// runs it and can write the result as BENCH_coproc.json.
//
// Each cell runs backend=split on one zipf workload under one placement
// policy, against the coupled device profile (the regime where
// co-processing can win; on the discrete A100 profile the planner
// correctly degenerates). The pinned "cpu" and "gpu" policies are the
// single-backend control rows — they run through the same split
// executor, so the partition/plan prefix cancels out of every
// comparison — "static" is the naive round-robin placement the cost
// model has to beat, and "cpu-aa" re-runs the all-CPU control as the A/A
// control. The twin is the CPU control because its clock, CPU busy time,
// carries the host's noise; a GPU-bound model plan's makespan is the
// simulator's deterministic modelled time and would repeat exactly.
// Every cell records the model's predicted makespan next to the measured
// one; the residual is the model's honesty metric, reported rather than
// hidden.
//
// The harness asserts, per zipf, that the model policy's join-side
// makespan is at most maxRegression times the better control plus a
// small epsilon — i.e. the planner never loses to the backends it
// chooses between. Violations land in Errors and fail the run.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"skewjoin"
	"skewjoin/internal/exec"
	"skewjoin/internal/outbuf"
)

// coprocZipfs is the default skew sweep: uniform (where the plan must
// degenerate), the paper's full-skew point, and the deep-skew tail. Past
// zipf ~1.1 a single hot radix partition — formerly the planner's atomic
// placement unit — exceeds the balanced makespan on either backend by
// itself; the 1.2 and 1.4 points exist to exercise intra-partition
// fragment-and-replicate, where the planner replicates the hot
// partition's build side to both backends and splits its probe side, and
// are gated strictly: the model policy must fragment AND beat the better
// single-backend control there.
var coprocZipfs = []float64{0.0, 1.0, 1.1, 1.2, 1.4}

// fragmentGateZipf is the skew depth from which the strict fragment gate
// applies to the model policy's cells.
const fragmentGateZipf = 1.2

// maxRegression and regressionEpsilonNs bound how much worse than the
// better single-backend control the model policy may measure before the
// run fails: 5% relative plus 5ms absolute (sub-millisecond joins are all
// harness noise).
const (
	maxRegression       = 1.05
	regressionEpsilonNs = 5e6
)

// coprocSweep measures the split executor under the model under test, the
// naive placement, the two pinned single-backend controls and the CPU
// control's A/A twin (the arms). One calibration serves every cell, so
// every plan is comparable.
func coprocSweep(cfg Config, cal skewjoin.Calibration, device skewjoin.DeviceConfig, threads int) *Sweep {
	return &Sweep{
		Name: "coproc", Zipfs: cfg.zipfs(coprocZipfs),
		Arms: []Arm{
			{"model", skewjoin.SplitPolicyModel}, {"static", skewjoin.SplitPolicyStatic},
			{"cpu", skewjoin.SplitPolicyCPU}, {"gpu", skewjoin.SplitPolicyGPU},
			{"cpu-aa", skewjoin.SplitPolicyCPU},
		},
		Twin: [2]string{"cpu", "cpu-aa"},
		Measure: func(w *Workload, _ Group, a Arm) (Sample, error) {
			res, err := skewjoin.Join(skewjoin.Split, w.R, w.S, &skewjoin.Options{
				Threads: threads, Device: device,
				SplitPolicy: a.Par.(skewjoin.SplitPolicy), Calibration: &cal,
				SplitMinWinNs: cfg.SplitMinWinNs,
			})
			if err != nil {
				return Sample{}, err
			}
			st := res.Split
			if st == nil || st.Plan == nil {
				return Sample{}, errors.New("split run missing stats")
			}
			// The join-side times follow the executor's hybrid clock: CPU
			// busy time per worker, modelled GPU time, and the makespan
			// max(CPU, GPU) — the overlapped join-phase time. The plan and
			// the GPU side are deterministic and must repeat exactly.
			makespan := st.JoinSideNs()
			predErr := 0.0
			if makespan > 0 {
				predErr = 100 * math.Abs(float64(st.Plan.PredictedMakespanNs-makespan)) / float64(makespan)
			}
			degenerate := ""
			if !st.Plan.Split {
				degenerate = string(st.Plan.Degenerate)
			}
			return Sample{Clock: time.Duration(makespan), Out: &outbuf.Summary{Count: res.Matches, Checksum: res.Checksum},
				Metrics: []Metric{
					{Name: "split", Value: st.Plan.Split, Fixed: true},
					{Name: "degenerate", Value: degenerate, Fixed: true},
					{Name: "cpu_parts", Value: len(st.Plan.CPUParts), Fixed: true},
					{Name: "gpu_parts", Value: len(st.Plan.GPUParts), Fixed: true},
					// The plan cut the hottest partition itself across both
					// backends: build replicated, probe split into
					// sub-ranges.
					{Name: "fragmented", Value: st.Fragmented(), Fixed: true},
					{Name: "cpu_fragments", Value: st.CPUFragments, Fixed: true},
					{Name: "gpu_fragments", Value: st.GPUFragments, Fixed: true},
					{Name: "gpu_join_ns", Value: st.GPUJoinNs, Fixed: true},
					{Name: "gpu_transfer_ns", Value: st.GPUTransferNs, Fixed: true},
					{Name: "predicted_makespan_ns", Value: st.Plan.PredictedMakespanNs, Fixed: true},
					{Name: "cpu_join_ns", Value: st.CPUJoinNs},
					{Name: "makespan_ns", Value: makespan},
					{Name: "pred_err_pct", Value: predErr},
					{Name: "imbalance", Value: st.Imbalance},
				}}, nil
		},
		Gate: coprocGate,
		Config: map[string]any{"threads": threads, "calibration": cal,
			"device": fmt.Sprintf("coupled/shm=%dKiB", device.SharedMemBytes>>10)},
		Print: printCoproc,
	}
}

// CoprocBench measures the split executor across zipf and placement
// policy on the coupled device profile.
func CoprocBench(cfg Config) (*Artifact, error) {
	cfg = cfg.Defaults()
	threads := cfg.Threads
	if threads <= 0 {
		threads = exec.DefaultThreads()
	}
	// The coupled profile, at the -shm capacity the caller picked. The
	// committed baseline uses 8 KiB — the paper's skew-to-capacity ratio
	// at reduced table sizes (see README) — so the hot partition's
	// sub-list decomposition costs what it would at full scale.
	device := skewjoin.CoupledDevice()
	if cfg.Device.SharedMemBytes > 0 {
		device.SharedMemBytes = cfg.Device.SharedMemBytes
	}
	// One calibration serves the whole report (the constants are host
	// properties); fitting it on the first workload keeps every cell's
	// plan comparable.
	w0, err := MakeWorkload(cfg.Tuples, cfg.zipfs(coprocZipfs)[0], cfg.Seed)
	if err != nil {
		return nil, err
	}
	return Run(cfg, coprocSweep(cfg, skewjoin.Calibrate(w0.R, w0.S, threads), device, threads))
}

// coprocGate asserts the model policy never measurably loses to the
// better pinned single-backend control at its zipf, and — strictly, at
// deep skew — that the model fragments the hot partition and measurably
// beats that control: at zipf >= fragmentGateZipf an atomic
// (whole-partition) placement cannot win, so a model cell that didn't
// fragment or didn't come out ahead is a regression, not noise.
func coprocGate(group []Cell) []string {
	var model *Cell
	better := int64(math.MaxInt64)
	for i := range group {
		c := &group[i]
		switch c.Arm {
		case "model":
			model = c
		case "cpu", "gpu":
			if c.BestNS > 0 && c.BestNS < better {
				better = c.BestNS
			}
		}
	}
	if model == nil || model.BestNS == 0 || better == math.MaxInt64 {
		return nil
	}
	var errs []string
	limit := int64(maxRegression*float64(better)) + regressionEpsilonNs
	if model.BestNS > limit {
		errs = append(errs, fmt.Sprintf(
			"model policy @ zipf %.2f: makespan %s exceeds %.0f%%+eps of better control %s",
			model.Zipf, FormatDuration(time.Duration(model.BestNS)),
			(maxRegression-1)*100, FormatDuration(time.Duration(better))))
	}
	if model.Zipf >= fragmentGateZipf {
		if model.Metrics["fragmented"] != true {
			errs = append(errs, fmt.Sprintf(
				"model policy @ zipf %.2f: deep-skew cell did not fragment the hot partition",
				model.Zipf))
		}
		if model.BestNS >= better {
			errs = append(errs, fmt.Sprintf(
				"model policy @ zipf %.2f: fragmented makespan %s does not beat better control %s",
				model.Zipf, FormatDuration(time.Duration(model.BestNS)),
				FormatDuration(time.Duration(better))))
		}
	}
	return errs
}

// printCoproc renders one block per zipf, one line per policy with the
// join-side makespan, the model's prediction error, and the placement
// shape.
func printCoproc(w io.Writer, a *Artifact) {
	cal := a.Config["calibration"].(skewjoin.Calibration)
	fmt.Fprintf(w, "== co-processing benchmark (n=%v, threads=%v, device=%v, best of %v) ==\n",
		a.Config["tuples"], a.Config["threads"], a.Config["device"], a.Config["repeats"])
	fmt.Fprintf(w, "calibration: build %.2f ns/tuple, probe %.2f ns/unit\n", cal.BuildNsPerTuple, cal.ProbeNsPerUnit)
	fmt.Fprintf(w, "makespan = max(CPU busy time, modelled GPU time) of the join phase\n")
	for i, c := range a.Cells {
		if i == 0 || c.Zipf != a.Cells[i-1].Zipf {
			fmt.Fprintf(w, "-- zipf %.2f --\n", c.Zipf)
		}
		shape := fmt.Sprintf("split %.0f/%.0f", c.num("cpu_parts"), c.num("gpu_parts"))
		if c.Metrics["fragmented"] == true {
			shape += fmt.Sprintf("+f%.0f/%.0f", c.num("cpu_fragments"), c.num("gpu_fragments"))
		}
		if c.Metrics["split"] != true {
			shape = fmt.Sprintf("all-%v", c.Metrics["degenerate"])
		}
		fmt.Fprintf(w, "%-8s %-12s  makespan %10s  cpu %10s  gpu %10s  pred-err %5.1f%%\n",
			c.Arm, shape, ns(c.num("makespan_ns")), ns(c.num("cpu_join_ns")),
			ns(c.num("gpu_join_ns")+c.num("gpu_transfer_ns")), c.num("pred_err_pct"))
	}
}
