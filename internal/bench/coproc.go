// Co-processing benchmark: the machine-readable artifact for the
// cost-model-driven CPU/GPU split executor. cmd/skewbench -exp coproc
// runs it and can write the result as BENCH_coproc.json.
//
// Each cell runs backend=split on one zipf workload under one placement
// policy and one HostParallelism setting, against the coupled device
// profile (the regime where co-processing can win; on the discrete A100
// profile the planner correctly degenerates). The pinned "cpu" and "gpu"
// policies are the single-backend control rows — they run through the
// same split executor, so the partition/plan prefix cancels out of every
// comparison — and "static" is the naive round-robin placement the cost
// model has to beat. Every cell records the model's predicted makespan
// next to the measured one; the residual is the model's honesty metric,
// reported rather than hidden.
//
// The harness asserts, per (zipf, hostpar) group, that the model policy's
// join-side makespan is at most maxRegression times the better control
// plus a small epsilon — i.e. the planner never loses to the backends it
// chooses between. Violations land in Errors and fail the run.
package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"skewjoin"
	"skewjoin/internal/exec"
)

// CoprocCell is one measured (zipf, policy, hostpar) combination. The
// join-side times follow the executor's hybrid clock: CPUJoinNS is host
// busy time per worker, GPUJoinNS/GPUTransferNS are modelled device time,
// and MakespanNS is the max of the two sides — the overlapped join-phase
// time. MakespanNS is the minimum across the repeat runs.
type CoprocCell struct {
	Zipf            float64 `json:"zipf"`
	Policy          string  `json:"policy"`
	HostParallelism int     `json:"host_parallelism"`
	// Split reports whether the executed plan used both backends;
	// Degenerate names the single backend otherwise.
	Split      bool   `json:"split"`
	Degenerate string `json:"degenerate,omitempty"`
	CPUParts   int    `json:"cpu_parts"`
	GPUParts   int    `json:"gpu_parts"`
	// Times (minimum over repeats, except the deterministic GPU side
	// which must not vary).
	CPUJoinNS     int64 `json:"cpu_join_ns"`
	GPUJoinNS     int64 `json:"gpu_join_ns"`
	GPUTransferNS int64 `json:"gpu_transfer_ns"`
	MakespanNS    int64 `json:"makespan_ns"`
	// PredictedMakespanNS is the cost model's forecast of MakespanNS;
	// PredErrPct = |predicted-actual|/actual * 100.
	PredictedMakespanNS int64   `json:"predicted_makespan_ns"`
	PredErrPct          float64 `json:"pred_err_pct"`
	// Imbalance is max(side)/min(side) when both backends ran.
	Imbalance float64 `json:"imbalance,omitempty"`
	// Fragmented reports the plan cut the hottest partition itself across
	// both backends (build replicated, probe split into CPUFragments +
	// GPUFragments sub-ranges). At zipf >= fragmentGateZipf the model
	// policy is required to fragment and to beat the better single-backend
	// control — the whole point of intra-partition fragment-and-replicate.
	Fragmented   bool `json:"fragmented,omitempty"`
	CPUFragments int  `json:"cpu_fragments,omitempty"`
	GPUFragments int  `json:"gpu_fragments,omitempty"`
}

// CoprocReport is the full co-processing benchmark: the committed
// BENCH_coproc.json is exactly this structure.
type CoprocReport struct {
	Tuples      int                  `json:"tuples"`
	Seed        int64                `json:"seed"`
	Threads     int                  `json:"threads"`
	Repeats     int                  `json:"repeats"`
	Device      string               `json:"device"`
	Calibration skewjoin.Calibration `json:"calibration"`
	Zipfs       []float64            `json:"zipfs"`
	Hostpars    []int                `json:"hostpars"`
	Policies    []string             `json:"policies"`
	Cells       []CoprocCell         `json:"cells"`
	Errors      []string             `json:"errors,omitempty"`
}

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

// coprocHostpars: serial simulation and a small host pool.
var coprocHostpars = []int{0, 4}

// coprocPolicies: the model under test, the naive placement, and the two
// pinned single-backend controls.
var coprocPolicies = []skewjoin.SplitPolicy{
	skewjoin.SplitPolicyModel,
	skewjoin.SplitPolicyStatic,
	skewjoin.SplitPolicyCPU,
	skewjoin.SplitPolicyGPU,
}

// maxRegression and regressionEpsilonNs bound how much worse than the
// better single-backend control the model policy may measure before the
// run fails: 5% relative plus 5ms absolute (sub-millisecond joins are all
// harness noise).
const (
	maxRegression       = 1.05
	regressionEpsilonNs = 5e6
)

// CoprocBench measures the split executor across zipf, placement policy
// and host parallelism on the coupled device profile.
func CoprocBench(cfg Config) (*CoprocReport, error) {
	zipfs := coprocZipfs
	if len(cfg.Zipfs) > 0 && len(cfg.Zipfs) != 11 {
		zipfs = cfg.Zipfs
	}
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
	rep := &CoprocReport{
		Tuples:   cfg.Tuples,
		Seed:     cfg.Seed,
		Threads:  threads,
		Repeats:  cfg.Repeats,
		Device:   fmt.Sprintf("coupled/shm=%dKiB", device.SharedMemBytes>>10),
		Zipfs:    zipfs,
		Hostpars: coprocHostpars,
	}
	for _, p := range coprocPolicies {
		rep.Policies = append(rep.Policies, string(p))
	}

	// One calibration serves the whole report (the constants are host
	// properties); fitting it on the first workload keeps every cell's
	// plan comparable.
	w0, err := MakeWorkload(cfg.Tuples, zipfs[0], cfg.Seed)
	if err != nil {
		return nil, err
	}
	cal := skewjoin.Calibrate(w0.R, w0.S, threads)
	rep.Calibration = cal

	for _, z := range zipfs {
		w, err := MakeWorkload(cfg.Tuples, z, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, hostpar := range coprocHostpars {
			dev := device
			dev.HostParallelism = hostpar
			group := make([]CoprocCell, 0, len(coprocPolicies))
			for _, policy := range coprocPolicies {
				cell := CoprocCell{Zipf: z, Policy: string(policy), HostParallelism: hostpar}
				for it := 0; it < cfg.Repeats; it++ {
					res, err := skewjoin.Join(skewjoin.Split, w.R, w.S, &skewjoin.Options{
						Threads: threads, Device: dev,
						SplitPolicy: policy, Calibration: &cal,
						SplitMinWinNs: cfg.SplitMinWinNs,
					})
					if err != nil {
						return nil, err
					}
					got := res.Summary()
					if got.Matches != w.Expected.Count || got.Checksum != w.Expected.Checksum {
						rep.Errors = append(rep.Errors, fmt.Sprintf(
							"%s hostpar=%d @ zipf %.2f: output mismatch", policy, hostpar, z))
						continue
					}
					foldCoproc(&cell, res.Split, rep)
				}
				if cell.MakespanNS > 0 {
					cell.PredErrPct = 100 * math.Abs(float64(cell.PredictedMakespanNS)-float64(cell.MakespanNS)) /
						float64(cell.MakespanNS)
				}
				group = append(group, cell)
			}
			checkCoprocGroup(group, rep)
			rep.Cells = append(rep.Cells, group...)
		}
	}
	return rep, nil
}

// foldCoproc folds one run into its cell: minimum join-side makespan (and
// the CPU busy time that produced it); the plan and the GPU side are
// deterministic and pinned by the first run.
func foldCoproc(c *CoprocCell, st *skewjoin.SplitStats, rep *CoprocReport) {
	if st == nil || st.Plan == nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf(
			"%s hostpar=%d @ zipf %.2f: split run missing stats", c.Policy, c.HostParallelism, c.Zipf))
		return
	}
	if c.MakespanNS == 0 {
		c.Split = st.Plan.Split
		if !st.Plan.Split {
			c.Degenerate = string(st.Plan.Degenerate)
		}
		c.CPUParts = len(st.Plan.CPUParts)
		c.GPUParts = len(st.Plan.GPUParts)
		c.Fragmented = st.Fragmented()
		c.CPUFragments = st.CPUFragments
		c.GPUFragments = st.GPUFragments
		c.GPUJoinNS = st.GPUJoinNs
		c.GPUTransferNS = st.GPUTransferNs
		c.PredictedMakespanNS = st.Plan.PredictedMakespanNs
		c.CPUJoinNS = st.CPUJoinNs
		c.MakespanNS = st.JoinSideNs()
		c.Imbalance = st.Imbalance
		return
	}
	if gpu := st.GPUJoinNs + st.GPUTransferNs; gpu != c.GPUJoinNS+c.GPUTransferNS {
		rep.Errors = append(rep.Errors, fmt.Sprintf(
			"%s hostpar=%d @ zipf %.2f: modelled GPU time changed across repeats (%d ns vs %d ns)",
			c.Policy, c.HostParallelism, c.Zipf, gpu, c.GPUJoinNS+c.GPUTransferNS))
	}
	if m := st.JoinSideNs(); m < c.MakespanNS {
		c.MakespanNS = m
		c.CPUJoinNS = st.CPUJoinNs
		c.Imbalance = st.Imbalance
	}
}

// checkCoprocGroup asserts the model policy never measurably loses to the
// better pinned single-backend control of its (zipf, hostpar) group, and
// — strictly, at deep skew — that the model fragments the hot partition
// and measurably beats that control: at zipf >= fragmentGateZipf an
// atomic (whole-partition) placement cannot win, so a model cell that
// didn't fragment or didn't come out ahead is a regression, not noise.
func checkCoprocGroup(group []CoprocCell, rep *CoprocReport) {
	var model *CoprocCell
	better := int64(math.MaxInt64)
	for i := range group {
		c := &group[i]
		switch c.Policy {
		case string(skewjoin.SplitPolicyModel):
			model = c
		case string(skewjoin.SplitPolicyCPU), string(skewjoin.SplitPolicyGPU):
			if c.MakespanNS > 0 && c.MakespanNS < better {
				better = c.MakespanNS
			}
		}
	}
	if model == nil || model.MakespanNS == 0 || better == math.MaxInt64 {
		return
	}
	limit := int64(maxRegression*float64(better)) + regressionEpsilonNs
	if model.MakespanNS > limit {
		rep.Errors = append(rep.Errors, fmt.Sprintf(
			"model policy hostpar=%d @ zipf %.2f: makespan %s exceeds %.0f%%+eps of better control %s",
			model.HostParallelism, model.Zipf,
			FormatDuration(time.Duration(model.MakespanNS)),
			(maxRegression-1)*100,
			FormatDuration(time.Duration(better))))
	}
	if model.Zipf >= fragmentGateZipf {
		if !model.Fragmented {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"model policy hostpar=%d @ zipf %.2f: deep-skew cell did not fragment the hot partition",
				model.HostParallelism, model.Zipf))
		}
		if model.MakespanNS >= better {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"model policy hostpar=%d @ zipf %.2f: fragmented makespan %s does not beat better control %s",
				model.HostParallelism, model.Zipf,
				FormatDuration(time.Duration(model.MakespanNS)),
				FormatDuration(time.Duration(better))))
		}
	}
}

// Fprint renders the report: one block per (zipf, hostpar) group, one
// line per policy with the join-side makespan, the model's prediction
// error, and the placement shape.
func (rep *CoprocReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== co-processing benchmark (n=%d, threads=%d, device=%s, best of %d) ==\n",
		rep.Tuples, rep.Threads, rep.Device, rep.Repeats)
	fmt.Fprintf(w, "calibration: build %.2f ns/tuple, probe %.2f ns/unit\n",
		rep.Calibration.BuildNsPerTuple, rep.Calibration.ProbeNsPerUnit)
	fmt.Fprintf(w, "makespan = max(CPU busy time, modelled GPU time) of the join phase\n")
	for _, z := range rep.Zipfs {
		for _, hp := range rep.Hostpars {
			fmt.Fprintf(w, "-- zipf %.2f, hostpar %d --\n", z, hp)
			for _, c := range rep.Cells {
				if c.Zipf != z || c.HostParallelism != hp {
					continue
				}
				shape := fmt.Sprintf("split %d/%d", c.CPUParts, c.GPUParts)
				if c.Fragmented {
					shape += fmt.Sprintf("+f%d/%d", c.CPUFragments, c.GPUFragments)
				}
				if !c.Split {
					shape = "all-" + c.Degenerate
				}
				fmt.Fprintf(w, "%-7s %-12s  makespan %10s  cpu %10s  gpu %10s  pred-err %5.1f%%\n",
					c.Policy, shape,
					FormatDuration(time.Duration(c.MakespanNS)),
					FormatDuration(time.Duration(c.CPUJoinNS)),
					FormatDuration(time.Duration(c.GPUJoinNS+c.GPUTransferNS)),
					c.PredErrPct)
			}
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "VERIFICATION FAILED: %s\n", e)
	}
	fmt.Fprintln(w)
}
