package skewjoin

import (
	"time"

	"skewjoin/internal/cbase"
	"skewjoin/internal/costmodel"
	"skewjoin/internal/exec"
	"skewjoin/internal/gpupart"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/joinphase"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
)

// Split is the co-processing execution mode: one join is split across the
// CPU workers and the simulated GPU, with the per-radix-partition
// placement chosen by the calibrated cost model (RecommendSplit) and both
// backends running concurrently. It is an engine mode rather than one of
// the paper's algorithms, so it is not listed by ExtendedAlgorithms.
const Split Algorithm = "split"

// Backend selects which processor(s) a join runs on — the service and CLI
// layer's dispatch axis, orthogonal to the Algorithm choice within a
// backend.
type Backend string

// The engine's backends.
const (
	BackendCPU   Backend = "cpu"
	BackendGPU   Backend = "gpu"
	BackendSplit Backend = "split"
)

// SplitPolicy selects how the Split mode places partitions.
type SplitPolicy string

// Placement policies. The zero value is the cost-model placement.
const (
	// SplitPolicyModel places partitions by the calibrated cost model,
	// degenerating to a single backend when the predicted win is below
	// threshold (the default).
	SplitPolicyModel SplitPolicy = "model"
	// SplitPolicyCPU pins every partition to the CPU side — the CPU-only
	// control row of the coproc benchmark, sharing the split executor's
	// partition and merge machinery so comparisons cancel them out.
	SplitPolicyCPU SplitPolicy = "cpu"
	// SplitPolicyGPU pins every partition to the simulated GPU.
	SplitPolicyGPU SplitPolicy = "gpu"
	// SplitPolicyStatic alternates partitions round-robin between the
	// backends, ignoring the cost model — the naive co-processing
	// control.
	SplitPolicyStatic SplitPolicy = "static"
)

// Calibration holds the fitted CPU cost-model constants (see
// internal/costmodel): ns per built tuple and ns per probe unit. The
// constants are host properties; fit them once and reuse across joins.
type Calibration = costmodel.Calibration

// Calibrate fits the CPU cost-model constants with a micro-run of cbase
// over stride-sampled slices of r and s. Costs a few milliseconds; the
// service layer caches the result in its catalog.
func Calibrate(r, s Relation, threads int) Calibration {
	return costmodel.Calibrate(r, s, threads)
}

// CoupledDevice returns the simulated integrated (coupled CPU-GPU
// architecture) device profile — a GPU only a small multiple faster than
// the host cores, the regime where co-processing pays off. With the
// default discrete A100 profile the split planner correctly degenerates
// to GPU-only, since an A100 outruns host cores by orders of magnitude.
func CoupledDevice() DeviceConfig { return gpusim.Coupled() }

// SplitStats reports how a Split run distributed and overlapped its work.
// CPU times are host times; GPU times are modelled device times, so the
// makespan is a hybrid clock: the join-phase time is the max of the CPU
// side's per-worker busy time and the GPU side's modelled time. Using
// busy time (build+probe ns over the worker count) rather than the CPU
// goroutine's wall time keeps the metric meaningful even when the host
// is too small to truly overlap the join workers with the simulator's
// own host work (simulating the GPU costs host cycles that a real
// co-processor would not).
type SplitStats struct {
	// Plan is the executed placement with the cost model's predictions.
	Plan *SplitPlan
	// PartitionNs / PlanNs are the shared prefix: wall time radix
	// partitioning both inputs and planning the placement.
	PartitionNs, PlanNs int64
	// CPUJoinNs is the CPU side's busy time per worker:
	// (BuildNs+ProbeNs)/threads, 0 when no partition ran on the CPU.
	CPUJoinNs int64
	// CPUWallNs is the CPU-side goroutine's measured wall time.
	CPUWallNs int64
	// GPUJoinNs / GPUTransferNs are the GPU side's modelled join and
	// H2D+D2H staging times.
	GPUJoinNs, GPUTransferNs int64
	// MakespanNs = PartitionNs + PlanNs + max(CPUJoinNs, GPUJoinNs+GPUTransferNs).
	MakespanNs int64
	// Imbalance is max(side)/min(side) over the two join-side times when
	// both backends ran, 0 otherwise. 1.0 = perfectly balanced split.
	Imbalance float64
	// CPUFragments / GPUFragments are the per-backend probe-range counts
	// of a fragmented hot partition (Plan.Fragments executed), 0/0 when
	// the run did not fragment.
	CPUFragments, GPUFragments int
}

// Fragmented reports whether the run split one partition's probe side
// across both backends.
func (st *SplitStats) Fragmented() bool { return st.CPUFragments+st.GPUFragments > 0 }

// JoinSideNs returns the actual overlapped join-phase time:
// max(CPUJoinNs, GPUJoinNs+GPUTransferNs). Compare against
// Plan.PredictedMakespanNs for the cost model's accuracy.
func (st *SplitStats) JoinSideNs() int64 {
	gpu := st.GPUJoinNs + st.GPUTransferNs
	if st.CPUJoinNs > gpu {
		return st.CPUJoinNs
	}
	return gpu
}

// joinSplit is the co-processing executor: radix-partition both inputs
// (overlapped, as cbase), plan the per-partition placement, then run the
// CPU join workers and the GPU simulation concurrently and
// merge both output streams into the volcano consumers.
func joinSplit(r, s Relation, opts *Options) (Result, error) {
	ctx := opts.Context
	// The CPU leg is Cbase's join phase: it takes Cbase's defaults for the
	// thread count, the radix bits and the skew factor.
	ccfg := cbase.Config{Threads: opts.Threads, Bits1: opts.Bits1, Bits2: opts.Bits2}.Defaults()
	threads := ccfg.Threads
	dcfg := opts.Device.Defaults()

	var timer exec.PhaseTimer
	rcfg := radix.Config{Threads: threads, Bits1: ccfg.Bits1, Bits2: ccfg.Bits2, Ctx: ctx}

	// Shared prefix 1: partition R and S, overlapped like cbase.
	var pr, ps *radix.Partitioned
	timer.Time("partition", func() {
		pr, ps = radix.PartitionPair(r.Tuples, s.Tuples, rcfg)
	})
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}

	// Shared prefix 2: cost every partition and place it.
	cal := resolveCalibration(opts.Calibration, r, s, threads)
	mcfg := costmodel.Config{
		Device: dcfg, Calib: cal, Threads: threads,
		MinWinNs: float64(opts.SplitMinWinNs), WinFraction: opts.SplitWinFraction,
		Fragments: opts.Fragments,
	}
	var plan costmodel.Plan
	timer.Time("plan", func() {
		costs := costmodel.Costs(pr, ps, mcfg)
		switch opts.SplitPolicy {
		case SplitPolicyCPU:
			plan = costmodel.ForcePlan(costs, mcfg, costmodel.CPU)
		case SplitPolicyGPU:
			plan = costmodel.ForcePlan(costs, mcfg, costmodel.GPU)
		case SplitPolicyStatic:
			plan = costmodel.StaticPlan(costs, mcfg)
		default:
			plan = costmodel.BuildPlan(costs, mcfg)
		}
	})
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}

	// Consumers: CPU workers own [0,threads), simulated SMs own
	// [threads, threads+NumSMs). Factories are invoked sequentially here,
	// before either side starts, per the Options.Consumer contract.
	bufs := make([]*outbuf.Buffer, threads)
	for w := range bufs {
		bufs[w] = outbuf.New(opts.OutBufCap)
		if opts.Consumer != nil {
			bufs[w].SetFlush(opts.Consumer(w))
		}
	}
	dev := gpusim.NewDevice(dcfg)
	if opts.Consumer != nil {
		dev.SetFlush(func(sm int) outbuf.FlushFunc { return opts.Consumer(threads + sm) })
	}

	// A fragmented hot partition contributes probe ranges to both sides:
	// contiguous same-backend fragments coalesce so the CPU side builds
	// its replica of the hot build table exactly once (joinphase's
	// oversized-split then fans the big range out into probe sub-tasks
	// over the fetch-add queue) and the GPU side launches one
	// probe-range-restricted set of sub-list blocks.
	cpuRanges, gpuRanges := fragmentRanges(plan.Fragments)

	// Run both sides concurrently and merge their streams.
	var cpuStats joinphase.Stats
	var cpuWall time.Duration
	g := &exec.Group{}
	joinStart := time.Now()
	g.Go(func() error {
		defer func() { cpuWall = time.Since(joinStart) }()
		if len(plan.CPUParts) == 0 && len(cpuRanges) == 0 {
			return nil
		}
		cpuStats = joinphase.Run(pr, ps, joinphase.Config{
			Threads: threads, SkewFactor: ccfg.SkewFactor,
			Ctx: ctx, Parts: plan.CPUParts, Ranges: cpuRanges,
		}, bufs)
		for _, b := range bufs {
			b.Flush()
		}
		if cpuStats.Canceled {
			return ctx.Err()
		}
		return nil
	})
	g.Go(func() error {
		defer dev.FlushOutputs()
		if len(plan.GPUParts) == 0 && len(gpuRanges) == 0 {
			return nil
		}
		return runSplitGPU(opts, dev, pr, ps, plan.GPUParts, gpuRanges)
	})
	if err := g.Wait(); err != nil {
		return Result{}, err
	}

	sum := mergeSplitSummaries(outbuf.Summarize(bufs), dev.OutputSummary())

	st := &SplitStats{Plan: publicSplitPlan(plan, pr.Fanout(), cal)}
	st.CPUFragments, st.GPUFragments = st.Plan.FragmentCounts()
	if pd, ok := timer.Get("partition"); ok {
		st.PartitionNs = pd.Nanoseconds()
	}
	if pd, ok := timer.Get("plan"); ok {
		st.PlanNs = pd.Nanoseconds()
	}
	st.CPUJoinNs = (cpuStats.BuildNs + cpuStats.ProbeNs) / int64(threads)
	st.CPUWallNs = cpuWall.Nanoseconds()
	st.GPUJoinNs = dev.PhaseTime("join").Nanoseconds()
	st.GPUTransferNs = dev.PhaseTime("transfer").Nanoseconds()
	st.MakespanNs = st.PartitionNs + st.PlanNs + st.JoinSideNs()
	gpuSide := st.GPUJoinNs + st.GPUTransferNs
	if st.CPUJoinNs > 0 && gpuSide > 0 {
		lo, hi := float64(st.CPUJoinNs), float64(gpuSide)
		if lo > hi {
			lo, hi = hi, lo
		}
		st.Imbalance = hi / lo
	}

	timer.Add("join", time.Duration(st.JoinSideNs()))
	out := wrap(Split, sum, phases(timer.Phases()), false)
	out.JoinPhase = joinPhaseStats(cpuStats)
	out.Split = st
	return out, nil
}

// mergeSplitSummaries is the co-processing merge: the output summary is
// an order-independent sum (count and checksum are both linear in the
// emitted records), so the CPU workers' buffers and the simulated SMs'
// buffers combine by plain field addition regardless of interleaving.
//
//skewlint:hotpath
func mergeSplitSummaries(cpu, gpu outbuf.Summary) outbuf.Summary {
	return outbuf.Summary{
		Count:    cpu.Count + gpu.Count,
		Checksum: cpu.Checksum + gpu.Checksum,
	}
}

// fragmentRanges splits a fragmented plan's fragment list into the CPU
// side's probe ranges and the GPU side's, coalescing contiguous
// same-backend fragments of the same partition into one range each. The
// coalescing is what keeps build replication a one-time cost per backend:
// the CPU side sees a single range task (built once, fanned out into
// probe sub-tasks by the oversized-split), and the GPU side stages and
// decomposes its replica once.
func fragmentRanges(frags []costmodel.Fragment) (cpu, gpu []joinphase.ProbeRange) {
	coalesce := func(rs []joinphase.ProbeRange, f costmodel.Fragment) []joinphase.ProbeRange {
		if n := len(rs); n > 0 && rs[n-1].Part == f.Part && rs[n-1].Hi == f.Lo {
			rs[n-1].Hi = f.Hi
			return rs
		}
		return append(rs, joinphase.ProbeRange{Part: f.Part, Lo: f.Lo, Hi: f.Hi})
	}
	for _, f := range frags {
		if f.Backend == costmodel.GPU {
			gpu = coalesce(gpu, f)
		} else {
			cpu = coalesce(cpu, f)
		}
	}
	return cpu, gpu
}

// splitGPUTask is one thread block of the split GPU side: an R sub-list
// of a partition joined against the partition's S side — all of it for a
// whole-partition placement, or the fragment's probe range [sLo, sHi)
// when the partition is fragmented across backends.
type splitGPUTask struct {
	part     int
	lo, hi   int // R sub-list bounds within the partition
	sLo, sHi int // S probe range when sHi > sLo; whole side otherwise
}

// runSplitGPU executes the GPU-assigned partitions, plus the GPU-side
// probe ranges of a fragmented partition, on the simulated device: one
// bulk H2D staging transfer of the assigned tuples, one join launch with
// an R partition larger than shared memory decomposed into sub-lists
// (each re-probing its full S share, Gbase's skew behaviour the cost
// model mirrors), and the D2H staging of the results. A fragment's
// blocks replicate the full R side but probe only S[sLo:sHi).
//
//skewlint:hotpath
func runSplitGPU(opts *Options, dev *gpusim.Device, pr, ps *radix.Partitioned, parts []int, frags []joinphase.ProbeRange) error {
	ctx := opts.Context
	if err := ctxErr(ctx); err != nil {
		return err
	}
	bytes := 0
	for _, p := range parts {
		bytes += (pr.Size(p) + ps.Size(p)) * relation.TupleSize
	}
	for _, f := range frags {
		bytes += (pr.Size(f.Part) + (f.Hi - f.Lo)) * relation.TupleSize
	}
	dev.Transfer("transfer", "split-h2d", bytes)

	capacity := dev.PartitionCapacityTuples()
	if capacity < 1 {
		capacity = 1
	}
	tasks := make([]splitGPUTask, 0, len(parts)+len(frags))
	addTasks := func(p, sLo, sHi int) {
		nR := pr.Size(p)
		if nR == 0 {
			return
		}
		for lo := 0; lo < nR; lo += capacity {
			hi := lo + capacity
			if hi > nR {
				hi = nR
			}
			tasks = append(tasks, splitGPUTask{part: p, lo: lo, hi: hi, sLo: sLo, sHi: sHi})
		}
	}
	for _, p := range parts {
		if ps.Size(p) == 0 {
			continue
		}
		addTasks(p, 0, 0)
	}
	for _, f := range frags {
		if f.Hi <= f.Lo {
			continue
		}
		addTasks(f.Part, f.Lo, f.Hi)
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if len(tasks) > 0 {
		dev.Launch("join", "split-join", len(tasks), func(b *gpusim.Block) {
			t := tasks[b.Idx]
			sSide := ps.Part(t.part)
			if t.sHi > t.sLo {
				sSide = sSide[t.sLo:t.sHi]
			}
			gpupart.ProbeJoinBlock(b, pr.Part(t.part)[t.lo:t.hi], sSide)
		})
	}
	// D2H: stage the produced results back to the host consumers.
	dev.Transfer("transfer", "split-d2h", int(dev.OutputSummary().Count)*12)
	return ctxErr(ctx)
}
