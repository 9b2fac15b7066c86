// Package costmodel predicts per-partition join costs on both backends
// and turns them into a CPU/GPU placement plan — the cost model behind
// the co-processing executor (DESIGN.md §5).
//
// The CPU side is a calibrated linear model over the join phase's two
// timed sections (internal/joinphase's BuildNs/ProbeNs split): building
// costs BuildNsPerTuple per R tuple, probing costs ProbeNsPerUnit per
// probe unit (one S tuple hashed plus one bucket entry visited). The two
// constants are host properties, fitted once by Calibrate's micro-run and
// reusable across requests.
//
// The GPU side needs no calibration: gpusim charges deterministic
// modelled cycles, so the model simply mirrors the kernel's charge recipe
// (gpupart.ProbeJoinBlock, including the sub-list decomposition of
// oversized R partitions and the H2D/D2H staging transfers) analytically
// from the partition sizes and sampled output estimates.
//
// Plan assigns every non-empty partition to one backend to minimize the
// predicted makespan: partitions are sorted heaviest-first and each is
// placed greedily on whichever backend finishes the combined schedule
// earlier (LPT over two unrelated machines — the CPU bin is work divided
// over its worker pool, the GPU bin replays gpusim's earliest-free-SM
// block schedule plus the serial transfers). When the predicted win over
// the better single backend is below a threshold, the plan degenerates to
// that single backend so uniform (or tiny) inputs pay no split overhead.
package costmodel

import (
	"math"
	"sort"

	"skewjoin/internal/cbase"
	"skewjoin/internal/freqtable"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/hashfn"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
)

// Backend identifies which processor a partition is placed on.
type Backend uint8

// The two processors of the coupled engine.
const (
	CPU Backend = iota
	GPU
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	if b == GPU {
		return "gpu"
	}
	return "cpu"
}

// Calibration holds the two fitted scale constants of the CPU cost model.
// They are properties of the host (cache behaviour, branch costs), not of
// a workload, so one calibration serves every subsequent join.
type Calibration struct {
	// BuildNsPerTuple is the wall ns to insert one R tuple into a
	// chained hash table (joinphase's BuildNs over tuples built).
	BuildNsPerTuple float64
	// ProbeNsPerUnit is the wall ns per probe unit: one S tuple hashed
	// plus one bucket entry visited (joinphase's ProbeNs over
	// |S| + ProbeVisits).
	ProbeNsPerUnit float64
}

// Valid reports whether both constants are positive and finite.
func (c Calibration) Valid() bool {
	return c.BuildNsPerTuple > 0 && c.ProbeNsPerUnit > 0 &&
		!math.IsInf(c.BuildNsPerTuple, 1) && !math.IsInf(c.ProbeNsPerUnit, 1)
}

// DefaultCalibration returns typical modern-x86 constants, used when no
// micro-run has been performed.
func DefaultCalibration() Calibration {
	return Calibration{BuildNsPerTuple: 10, ProbeNsPerUnit: 2.5}
}

// calibration micro-run bounds: enough tuples that per-task overheads
// amortise, few enough that calibration stays in the low milliseconds.
const (
	calibrateTuples = 1 << 14
	calibrateRounds = 2
)

// Calibrate fits the CPU constants with a micro-run: a stride-sampled
// slice of each input (so the sample keeps the workload's skew shape) is
// joined by cbase, and the constants are read off the join phase's timed
// build/probe split. The cheapest of a few rounds is kept, since wall
// timers can only be inflated by scheduler noise, never deflated. Results
// are clamped into a sane range and fall back to DefaultCalibration when
// the inputs are too small to measure.
func Calibrate(r, s relation.Relation, threads int) Calibration {
	rs, ss := strideSample(r.Tuples, calibrateTuples), strideSample(s.Tuples, calibrateTuples)
	if len(rs) < 256 || len(ss) < 256 {
		return DefaultCalibration()
	}
	best := Calibration{math.Inf(1), math.Inf(1)}
	for round := 0; round < calibrateRounds; round++ {
		res := cbase.Join(
			relation.Relation{Tuples: rs}, relation.Relation{Tuples: ss},
			cbase.Config{Threads: threads, Bits1: 4, Bits2: 3},
		)
		st := res.Stats.Join
		units := float64(len(ss)) + float64(st.ProbeVisits)
		if st.BuildNs > 0 {
			if b := float64(st.BuildNs) / float64(len(rs)); b < best.BuildNsPerTuple {
				best.BuildNsPerTuple = b
			}
		}
		if st.ProbeNs > 0 && units > 0 {
			if p := float64(st.ProbeNs) / units; p < best.ProbeNsPerUnit {
				best.ProbeNsPerUnit = p
			}
		}
	}
	if !best.Valid() {
		return DefaultCalibration()
	}
	return best.clamp()
}

// clamp bounds both constants into [0.1ns, 1000ns] so a degenerate
// micro-run cannot produce a plan-warping calibration.
func (c Calibration) clamp() Calibration {
	bound := func(v float64) float64 {
		if v < 0.1 {
			return 0.1
		}
		if v > 1000 {
			return 1000
		}
		return v
	}
	return Calibration{BuildNsPerTuple: bound(c.BuildNsPerTuple), ProbeNsPerUnit: bound(c.ProbeNsPerUnit)}
}

// strideSample returns every n/cap-th tuple of src, at most cap tuples.
// Stride sampling keeps heavy keys at their true relative frequency,
// which is what makes the micro-run representative of the full join.
func strideSample(src []relation.Tuple, capTuples int) []relation.Tuple {
	if len(src) <= capTuples {
		return src
	}
	stride := (len(src) + capTuples - 1) / capTuples
	out := make([]relation.Tuple, 0, len(src)/stride+1)
	for i := 0; i < len(src); i += stride {
		out = append(out, src[i])
	}
	return out
}

// Config parameterises cost prediction and planning.
type Config struct {
	// Device is the simulated GPU the plan targets (zero fields = A100).
	Device gpusim.Config
	// Calib holds the CPU constants (zero value = DefaultCalibration).
	Calib Calibration
	// Threads is the CPU-side worker count the plan divides CPU work over.
	Threads int
	// SampleTarget is the per-partition, per-side sample size used to
	// estimate output cardinality and top-key frequency (default 64).
	SampleTarget int
	// MinWinNs is the absolute predicted-win floor: a split predicted to
	// save less than this over the better single backend degenerates
	// (default 25ms — below that, orchestration overhead eats the win).
	MinWinNs float64
	// WinFraction is the relative predicted-win floor (default 0.10).
	WinFraction float64
	// Fragments is the granularity the hot partition's probe side is cut
	// into when the plan fragments it across both backends (default 8,
	// minimum effective value 2). Negative disables fragmentation, making
	// the radix partition the atomic placement unit again.
	Fragments int
	// FragmentFactor triggers fragmentation: the hot partition is
	// fragmented only when its cheaper-backend solo time exceeds
	// FragmentFactor times the balanced-makespan lower bound (default
	// 1.2) — below that, whole-partition placement can still balance.
	FragmentFactor float64
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	c.Device = c.Device.Defaults()
	if !c.Calib.Valid() {
		c.Calib = DefaultCalibration()
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.SampleTarget <= 0 {
		c.SampleTarget = 64
	}
	if c.MinWinNs <= 0 {
		c.MinWinNs = 25e6
	}
	if c.WinFraction <= 0 {
		c.WinFraction = 0.10
	}
	if c.Fragments == 0 {
		c.Fragments = 8
	} else if c.Fragments > 0 && c.Fragments < 2 {
		c.Fragments = 2
	}
	if c.FragmentFactor <= 0 {
		c.FragmentFactor = 1.2
	}
	return c
}

// PartCost is one non-empty radix partition with its predicted cost on
// each backend.
type PartCost struct {
	Part   int // partition index
	NR, NS int
	// EstOut is the sampled cross-estimate of the partition's output.
	EstOut float64
	// EstVisits is the estimated bucket entries visited probing it.
	EstVisits float64
	// TopChain is the extrapolated top-key frequency on the R side — the
	// partition's longest expected chain, reused when pricing fragments.
	TopChain float64
	// CPUNs is the predicted single-worker CPU time.
	CPUNs float64
	// GPUBlockCycles holds the predicted cycles of each thread block the
	// partition becomes on the GPU (sub-list decomposition included).
	GPUBlockCycles []float64
	// GPUCycles is the sum over GPUBlockCycles.
	GPUCycles float64
	// Bytes is the partition's H2D input traffic if GPU-placed.
	Bytes int
}

// divergenceFactor inflates the predicted warp-loop iterations over the
// ideal visits/WarpSize: within a warp the slowest lane sets the pace, so
// chain-length variance costs extra iterations. Under heavy skew lanes
// walk the same giant chain and the factor approaches 1; the constant is
// a middle ground and the residual shows up in the recorded
// predicted-vs-actual error, not in correctness.
const divergenceFactor = 1.2

// Costs predicts both backends' cost for every non-empty partition pair,
// in ascending partition order. It allocates per call, not per partition:
// every partition's GPU blocks share one backing array, and one sample
// counter serves every partition.
func Costs(pr, ps *radix.Partitioned, cfg Config) []PartCost {
	cfg = cfg.Defaults()
	fanout := pr.Fanout()
	out := make([]PartCost, 0, fanout)
	// A partition becomes ceil(nR/capacity) <= nR/capacity + 1 blocks, so
	// the backing array never grows.
	blocks := make([]float64, 0, fanout+pr.Total()/blockCapacity(cfg.Device)+1)
	cr := freqtable.New(cfg.SampleTarget)
	for p := 0; p < fanout; p++ {
		nR, nS := pr.Size(p), ps.Size(p)
		if nR == 0 || nS == 0 {
			continue
		}
		pc := PartCost{Part: p, NR: nR, NS: nS, Bytes: (nR + nS) * relation.TupleSize}
		estOut, topR := estimatePartition(pr.Part(p), ps.Part(p), cfg.SampleTarget, cr)
		pc.EstOut = estOut
		pc.EstVisits = estVisits(nR, nS, estOut)
		pc.TopChain = topR
		pc.CPUNs = cfg.Calib.BuildNsPerTuple*float64(nR) +
			cfg.Calib.ProbeNsPerUnit*(float64(nS)+pc.EstVisits)
		n := len(blocks)
		blocks = gpuBlocks(blocks, cfg.Device, nR, nS, pc.EstVisits, estOut, topR)
		pc.GPUBlockCycles = blocks[n:len(blocks):len(blocks)]
		for _, c := range pc.GPUBlockCycles {
			pc.GPUCycles += c
		}
		out = append(out, pc)
	}
	return out
}

// estimatePartition stride-samples both sides of one partition and
// returns the cross-sample output estimate plus the extrapolated top-key
// frequency on the R side (the partition's longest expected chain). The
// R sample is counted in cr, reset first so that one counter serves every
// partition; each sampled S tuple then adds its key's R count, which sums
// to the cross product of the two samples' key frequencies.
func estimatePartition(rPart, sPart []relation.Tuple, target int, cr *freqtable.Counter) (estOut, topR float64) {
	strideR, strideS := sampleStride(len(rPart), target), sampleStride(len(sPart), target)
	cr.Reset()
	var top uint32
	for i := 0; i < len(rPart); i += strideR {
		if c := cr.Add(rPart[i].Key); c > top {
			top = c
		}
	}
	var cross uint64
	for i := 0; i < len(sPart); i += strideS {
		cross += uint64(cr.Count(sPart[i].Key))
	}
	return float64(cross) * float64(strideR) * float64(strideS), float64(top) * float64(strideR)
}

// sampleStride is the stride that yields about `target` samples from n
// items.
func sampleStride(n, target int) int {
	if n <= target {
		return 1
	}
	return (n + target - 1) / target
}

// estVisits estimates the bucket entries visited while probing an
// nR-tuple chained table (NextPow2(nR) buckets, load factor <= 1) with nS
// tuples: every probe walks its whole bucket, so the expected visits are
// nS times the average chain length, plus the matches the cross-estimate
// found beyond what uniform chains explain.
func estVisits(nR, nS int, estOut float64) float64 {
	buckets := hashfn.NextPow2(nR)
	uniform := float64(nS) * float64(nR) / float64(buckets)
	v := uniform + estOut
	if v < float64(nS) {
		v = float64(nS)
	}
	return v
}

// gpuBlocks appends to dst the per-block cycles a partition costs on the
// GPU, mirroring gpupart.ProbeJoinBlock's charge recipe. An R side larger
// than the shared-memory capacity is decomposed into ceil(nR/capacity)
// sub-lists, each probed by the full S partition — Gbase's skew weakness,
// reproduced faithfully so the planner sees its cost. Chains (and hence
// visits, matches and barrier depth) split roughly evenly across
// sub-lists, and every sub-list rereads the full S side, so every block
// costs the same.
func gpuBlocks(dst []float64, dev gpusim.Config, nR, nS int, visits, estOut, topChain float64) []float64 {
	capacity := blockCapacity(dev)
	subs := (nR + capacity - 1) / capacity
	if subs < 1 {
		subs = 1
	}
	f := float64(subs)
	c := blockCycles(dev, float64(nR)/f, float64(nS), visits/f, estOut/f, topChain/f)
	for i := 0; i < subs; i++ {
		dst = append(dst, c)
	}
	return dst
}

// blockCapacity is the R tuples one block's shared-memory table holds.
func blockCapacity(dev gpusim.Config) int {
	return max(dev.SharedMemBytes/16, 1)
}

// blockCycles mirrors gpupart.ProbeJoinBlock's cost accounting for one
// thread block joining an nR-tuple R sub-list against an nS-tuple S side.
func blockCycles(dev gpusim.Config, nR, nS, visits, matches, topChain float64) float64 {
	bpc := dev.GlobalBandwidth / dev.ClockHz / float64(dev.NumSMs)
	warps := float64(dev.CoresPerSM) / float64(dev.WarpSize)
	if warps < 1 {
		warps = 1
	}
	ws := float64(dev.WarpSize)

	var cycles float64
	// Build: coalesced R read, per-tuple hash/insert work, bucket-head
	// atomics.
	cycles += nR * relation.TupleSize / bpc
	cycles += math.Ceil(nR/ws) * 4 / warps
	cycles += nR * dev.AtomicCost
	// Probe: coalesced S read, then the chain walk. Each chain step costs
	// a shared access, a compare and the write-bitmap procedure; warps
	// serialise on their slowest lane (divergenceFactor).
	cycles += nS * relation.TupleSize / bpc
	stepCost := dev.SharedAccessCost + dev.ComputeCost + dev.AtomicCost + 3*dev.ComputeCost
	cycles += visits / ws * divergenceFactor * stepCost / warps
	// Barriers: one per chain step per batch of ThreadsPerBlock S tuples;
	// the longest chain in a typical batch is at least a couple of steps
	// and approaches the partition's top-key chain under skew.
	chain := topChain
	if chain < 2 {
		chain = 2
	}
	cycles += nS / float64(dev.ThreadsPerBlock) * chain * dev.BarrierCost
	// Output: post-bitmap offsets plus the coalesced result write.
	cycles += math.Ceil(matches/ws) / warps
	cycles += matches * 12 / bpc
	return cycles
}

// Degeneration reasons, reported by Plan.DegenerateReason when a plan
// falls back to a single backend.
const (
	// ReasonHotPartitionDominates: the hot partition's cheaper-backend
	// solo time is within the win threshold of the better single-backend
	// time, so no whole-partition placement (and no fragmentation the
	// model could price) can beat single-backend execution.
	ReasonHotPartitionDominates = "hot-partition-dominates"
	// ReasonMinWinThreshold: a balanced split exists on paper but its
	// predicted win is below max(MinWinNs, WinFraction·better) — the
	// orchestration overhead would eat it.
	ReasonMinWinThreshold = "min-win-threshold"
	// ReasonPolicyPinned: the policy (static round-robin with one
	// partition, or a forced single backend), not the model, placed
	// everything on one backend.
	ReasonPolicyPinned = "policy-pinned"
)

// Fragment is one probe-side sub-range of a fragmented partition. The
// partition's build side is replicated to both backends; each fragment
// probes S[Lo:Hi) of the partition against the full replicated table, so
// disjoint fragments emit disjoint slices of the partition's output.
type Fragment struct {
	Part    int // the fragmented partition's index
	Lo, Hi  int // probe-side sub-range [Lo, Hi) within the partition
	Backend Backend
}

// Plan is a per-partition placement with its predicted consequences. All
// times are nanoseconds of the respective backend's clock: CPU times are
// wall-style busy time per worker, GPU times are modelled device time —
// the same units the executor reports, so predicted and actual makespans
// are directly comparable.
type Plan struct {
	// CPUParts and GPUParts list the assigned partition indices, each in
	// ascending order. Every non-empty partition appears in exactly one,
	// except a fragmented partition (FragPart), which appears in neither:
	// its placement is the per-range Fragments list instead.
	CPUParts, GPUParts []int
	// Fragments holds the probe-side sub-ranges of the fragmented
	// partition, covering it exactly once. Empty when no partition was
	// fragmented.
	Fragments []Fragment
	// FragPart is the fragmented partition's index, -1 when none.
	FragPart int
	// CPUNs is the predicted CPU-side time: assigned work over Threads.
	CPUNs float64
	// GPUNs is the predicted GPU-side modelled time: H2D transfer, the
	// block schedule's makespan, launch overhead and D2H transfer.
	GPUNs float64
	// TransferNs is the transfer share of GPUNs.
	TransferNs float64
	// MakespanNs is max(CPUNs, GPUNs) — the predicted join-phase time
	// with both backends running concurrently.
	MakespanNs float64
	// CPUOnlyNs / GPUOnlyNs are the predicted single-backend controls.
	CPUOnlyNs, GPUOnlyNs float64
	// BalancedNs is the balanced-makespan lower bound (BalancedBound) —
	// what a perfect fractional placement of all partitions would cost.
	BalancedNs float64
	// Split reports whether the plan actually uses both backends. When
	// false, Degenerate names the single backend everything runs on and
	// DegenerateReason classifies why (Reason* constants).
	Split            bool
	Degenerate       Backend
	DegenerateReason string
}

// Fragmented reports whether the plan splits one partition across both
// backends.
func (p *Plan) Fragmented() bool { return len(p.Fragments) > 0 }

// BuildPlan assigns every costed partition to a backend. costs must be in
// ascending partition order, as Costs returns them. The heaviest
// partitions — by their dearer backend's cost, max(CPUNs, the GPU time of
// their largest block plus their transfers) — are placed first, each on
// the backend that minimizes the resulting predicted makespan. When the
// hot partition alone exceeds the balanced-makespan bound by
// FragmentFactor, a fragmented plan — the hot partition's build side
// replicated to both backends, its probe side split cost-proportionally —
// is priced too and adopted if it predicts a strictly lower makespan.
// Afterwards the plan degenerates to the better single backend if the
// predicted win is below the configured thresholds, recording why.
func BuildPlan(costs []PartCost, cfg Config) Plan {
	cfg = cfg.Defaults()
	key := heaviestKeys(costs, &cfg.Device)
	side := make([]Backend, len(costs))
	cpu := &cpuBin{threads: float64(cfg.Threads)}
	gpu := newGPUBin(cfg.Device)
	place(costs, heaviestFirst(key, -1), cpu, gpu, side)

	plan := Plan{FragPart: -1, CPUNs: cpu.time(), GPUNs: gpu.time(), TransferNs: gpu.transferNs()}
	plan.CPUParts, plan.GPUParts = placementLists(costs, side, -1)
	plan.MakespanNs = math.Max(plan.CPUNs, plan.GPUNs)
	plan.CPUOnlyNs, plan.GPUOnlyNs = SinglePredictions(costs, cfg)
	plan.BalancedNs = BalancedBound(costs, cfg)

	hotIdx, hotNs := hotAtomic(costs, cfg)
	if frag, ok := fragmentPlan(costs, cfg, key, hotIdx, hotNs, plan.BalancedNs); ok && frag.MakespanNs < plan.MakespanNs {
		frag.CPUOnlyNs, frag.GPUOnlyNs = plan.CPUOnlyNs, plan.GPUOnlyNs
		frag.BalancedNs = plan.BalancedNs
		plan = frag
	}

	usesCPU := len(plan.CPUParts) > 0
	usesGPU := len(plan.GPUParts) > 0
	for _, f := range plan.Fragments {
		if f.Backend == CPU {
			usesCPU = true
		} else {
			usesGPU = true
		}
	}
	better := math.Min(plan.CPUOnlyNs, plan.GPUOnlyNs)
	win := better - plan.MakespanNs
	threshold := math.Max(cfg.MinWinNs, cfg.WinFraction*better)
	if !usesCPU || !usesGPU || win < threshold {
		// Classify the fallback. The hot partition is the structural
		// blocker when the plan could not fragment it (disabled, too
		// small to cut, or fragmentation lost to the atomic plan), it
		// exceeds the fragmentation trigger, and its solo floor leaves
		// less than the required win over the better single backend.
		// Otherwise the win merely fell under the floor.
		reason := ReasonMinWinThreshold
		if !plan.Fragmented() && hotNs > cfg.FragmentFactor*plan.BalancedNs &&
			hotNs >= better-threshold {
			reason = ReasonHotPartitionDominates
		}
		p := degenerate(costs, cfg, plan)
		p.DegenerateReason = reason
		return p
	}
	plan.Split = true
	return plan
}

// heaviestKeys returns every partition's heaviest-first placement key:
// its dearer backend's cost, max(CPUNs, gpuNsOf).
func heaviestKeys(costs []PartCost, dev *gpusim.Config) []float64 {
	key := make([]float64, len(costs))
	for i := range costs {
		key[i] = math.Max(costs[i].CPUNs, gpuNsOf(dev, &costs[i]))
	}
	return key
}

// heaviestFirst returns the indices of key except skip (-1 for none),
// sorted by key, largest first. sort.Slice is not stable, so partitions
// with equal keys end up in whatever order its comparisons leave; the
// placements therefore sort once per distinct skip set and reuse that
// order, rather than deriving one skip set's order from another's.
func heaviestFirst(key []float64, skip int) []int {
	order := make([]int, 0, len(key))
	for i := range key {
		if i != skip {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return key[order[a]] > key[order[b]] })
	return order
}

// place greedily places the partitions costs[i], i in order, onto
// whichever bin yields the lower combined makespan, mutating the bins and
// recording each decision in side[i]. Bins may arrive pre-seeded
// (fragmentPlan seeds them with the hot partition's fragments before
// placing the tail).
func place(costs []PartCost, order []int, cpu *cpuBin, gpu *gpuBin, side []Backend) {
	for _, i := range order {
		pc := &costs[i]
		withCPU := math.Max(cpu.timeWith(pc), gpu.time())
		withGPU := math.Max(cpu.time(), gpu.timeWith(pc))
		if withCPU <= withGPU {
			cpu.add(pc)
			side[i] = CPU
		} else {
			gpu.add(pc)
			side[i] = GPU
		}
	}
}

// placementLists returns the partition indices side places on each
// backend, leaving out skip (-1 for none). Walking costs in order keeps
// both lists ascending without sorting them; a backend that received
// nothing gets a nil list.
func placementLists(costs []PartCost, side []Backend, skip int) (onCPU, onGPU []int) {
	nGPU := 0
	for i, b := range side {
		if b == GPU && i != skip {
			nGPU++
		}
	}
	nCPU := len(costs) - nGPU
	if skip >= 0 {
		nCPU--
	}
	if nCPU > 0 {
		onCPU = make([]int, 0, nCPU)
	}
	if nGPU > 0 {
		onGPU = make([]int, 0, nGPU)
	}
	for i := range costs {
		switch {
		case i == skip:
		case side[i] == GPU:
			onGPU = append(onGPU, costs[i].Part)
		default:
			onCPU = append(onCPU, costs[i].Part)
		}
	}
	return onCPU, onGPU
}

// BalancedBound returns the fractional balanced-makespan lower bound: the
// smallest deadline T for which a fractional placement of every partition
// (each arbitrarily divisible between the backends) finishes both sides
// by T. Whole-partition placement can never beat it, so a hot partition
// whose solo time exceeds this bound by FragmentFactor provably dominates
// any atomic plan's makespan — the fragmentation trigger. Computed by
// binary search on T with a greedy fractional feasibility check (CPU
// budget spent on the partitions with the highest GPU-relief per CPU-ns
// first — the fractional-knapsack optimum).
func BalancedBound(costs []PartCost, cfg Config) float64 {
	cfg = cfg.Defaults()
	if len(costs) == 0 {
		return 0
	}
	c := make([]float64, len(costs))
	g := make([]float64, len(costs))
	var sumC, sumG float64
	for i := range costs {
		c[i] = costs[i].CPUNs / float64(cfg.Threads)
		// Idealized perfectly-parallel GPU time: cycles spread over all
		// SMs plus the partition's transfer share. A lower bound on the
		// real block schedule, as a bound must be.
		g[i] = cyclesToNs(&cfg.Device, costs[i].GPUCycles/float64(cfg.Device.NumSMs)) +
			transferNs(&cfg.Device, costs[i].Bytes, costs[i].EstOut)
		sumC += c[i]
		sumG += g[i]
	}
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g[order[a]]*c[order[b]] > g[order[b]]*c[order[a]]
	})
	feasible := func(T float64) bool {
		cpuLeft, gpuLoad := T, 0.0
		for _, i := range order {
			switch {
			case cpuLeft <= 0:
				gpuLoad += g[i]
			case c[i] <= cpuLeft:
				cpuLeft -= c[i]
			default:
				gpuLoad += g[i] * (1 - cpuLeft/c[i])
				cpuLeft = 0
			}
		}
		return gpuLoad <= T
	}
	lo, hi := 0.0, math.Min(sumC, sumG)
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// hotAtomic returns the index (into costs) and cheaper-backend solo time
// of the partition that is most expensive even on its better backend —
// the floor any atomic placement's makespan inherits from it.
func hotAtomic(costs []PartCost, cfg Config) (idx int, ns float64) {
	idx = -1
	// An empty bin's timeWith is a partition's time alone on the GPU:
	// block schedule, launch overhead and transfers.
	solo := newGPUBin(cfg.Device)
	for i := range costs {
		if t := math.Min(costs[i].CPUNs/float64(cfg.Threads), solo.timeWith(&costs[i])); t > ns {
			idx, ns = i, t
		}
	}
	return idx, ns
}

// fragmentPlan prices a plan that fragments the hot partition costs[hotIdx]
// (hotAtomic's pick, with solo time hotNs) across both backends: its build
// side replicated to both, its probe side cut into cfg.Fragments equal
// ranges of which the first k go to the CPU and the contiguous rest to the
// GPU. Every k is tried with the tail partitions re-placed greedily around
// the seeded fragments, in one heaviest-first order (key, without the hot
// partition) that every cut shares, and the best balance is returned. ok
// is false when fragmentation is disabled, the hot partition does not
// exceed the balanced bound by FragmentFactor, or no cut exists.
func fragmentPlan(costs []PartCost, cfg Config, key []float64, hotIdx int, hotNs, balanced float64) (Plan, bool) {
	if cfg.Fragments < 2 || hotIdx < 0 || hotNs <= cfg.FragmentFactor*balanced {
		return Plan{}, false
	}
	hot := &costs[hotIdx]
	f := cfg.Fragments
	if f > hot.NS {
		f = hot.NS
	}
	if f < 2 {
		return Plan{}, false
	}

	order := heaviestFirst(key, hotIdx)
	side, bestSide := make([]Backend, len(costs)), make([]Backend, len(costs))
	cpu := &cpuBin{threads: float64(cfg.Threads)}
	gpu := newGPUBin(cfg.Device)
	best := Plan{MakespanNs: math.Inf(1)}
	bestK := 0
	for k := 1; k < f; k++ {
		cut := hot.NS * k / f
		if cut == 0 || cut == hot.NS {
			continue
		}
		cpu.workNs = 0
		gpu.reset()
		// Seed the bins with the hot partition's two sides — the heaviest
		// placement decision — then place the tail greedily around them.
		// Each side pays the full build replication: the CPU fragment's
		// CPUNs charges BuildNsPerTuple for every R tuple, and the GPU
		// fragment decomposes the full R side into sub-lists that each
		// reread only its probe share.
		cpu.add(fragCost(hot, cfg, 0, cut))
		gpu.add(fragCost(hot, cfg, cut, hot.NS))
		place(costs, order, cpu, gpu, side)
		if makespan := math.Max(cpu.time(), gpu.time()); makespan < best.MakespanNs {
			best = Plan{
				FragPart: hot.Part, CPUNs: cpu.time(), GPUNs: gpu.time(),
				TransferNs: gpu.transferNs(), MakespanNs: makespan,
			}
			bestK = k
			side, bestSide = bestSide, side
		}
	}
	if bestK == 0 {
		return Plan{}, false
	}
	best.CPUParts, best.GPUParts = placementLists(costs, bestSide, hotIdx)
	best.Fragments = make([]Fragment, 0, f)
	for i := 0; i < f; i++ {
		if lo, hi := hot.NS*i/f, hot.NS*(i+1)/f; lo < hi {
			b := GPU
			if i < bestK {
				b = CPU
			}
			best.Fragments = append(best.Fragments, Fragment{Part: hot.Part, Lo: lo, Hi: hi, Backend: b})
		}
	}
	return best, true
}

// fragCost prices one probe-side fragment S[lo:hi) of the hot partition
// as a synthetic PartCost: the full R side (the build-replication
// penalty), the probe quantities scaled by the fragment's share of S, and
// the partition's top chain kept whole — the hot key's chain is fully
// present in the replicated table no matter how S is cut.
func fragCost(hot *PartCost, cfg Config, lo, hi int) *PartCost {
	ns := hi - lo
	frac := float64(ns) / float64(hot.NS)
	visits := hot.EstVisits * frac
	if visits < float64(ns) {
		visits = float64(ns)
	}
	estOut := hot.EstOut * frac
	pc := &PartCost{
		Part: hot.Part, NR: hot.NR, NS: ns,
		EstOut: estOut, EstVisits: visits, TopChain: hot.TopChain,
		Bytes: (hot.NR + ns) * relation.TupleSize,
	}
	pc.CPUNs = cfg.Calib.BuildNsPerTuple*float64(hot.NR) +
		cfg.Calib.ProbeNsPerUnit*(float64(ns)+visits)
	pc.GPUBlockCycles = gpuBlocks(nil, cfg.Device, hot.NR, ns, visits, estOut, hot.TopChain)
	for _, c := range pc.GPUBlockCycles {
		pc.GPUCycles += c
	}
	return pc
}

// SinglePredictions returns the predicted times of running every costed
// partition on one backend — the CPU-only and GPU-only controls.
func SinglePredictions(costs []PartCost, cfg Config) (cpuNs, gpuNs float64) {
	cfg = cfg.Defaults()
	cpu := &cpuBin{threads: float64(cfg.Threads)}
	gpu := newGPUBin(cfg.Device)
	for i := range costs {
		cpu.add(&costs[i])
		gpu.add(&costs[i])
	}
	return cpu.time(), gpu.time()
}

// degenerate rewrites plan to place everything on the cheaper single
// backend.
func degenerate(costs []PartCost, cfg Config, plan Plan) Plan {
	b := CPU
	if plan.GPUOnlyNs < plan.CPUOnlyNs {
		b = GPU
	}
	return singleBackend(costs, cfg, plan, b)
}

// StaticPlan alternates the costed partitions round-robin between the
// two backends, ignoring the cost model — the naive co-processing
// control the model-driven plan is benchmarked against (and the simplest
// way for tests to force a genuine two-backend split on inputs too small
// to clear BuildPlan's win thresholds).
func StaticPlan(costs []PartCost, cfg Config) Plan {
	cfg = cfg.Defaults()
	cpu := &cpuBin{threads: float64(cfg.Threads)}
	gpu := newGPUBin(cfg.Device)
	var onCPU, onGPU []int
	for i := range costs {
		pc := &costs[i]
		if i%2 == 0 {
			cpu.add(pc)
			onCPU = append(onCPU, pc.Part)
		} else {
			gpu.add(pc)
			onGPU = append(onGPU, pc.Part)
		}
	}
	plan := Plan{
		CPUParts: onCPU, GPUParts: onGPU, FragPart: -1,
		CPUNs: cpu.time(), GPUNs: gpu.time(), TransferNs: gpu.transferNs(),
	}
	plan.MakespanNs = math.Max(plan.CPUNs, plan.GPUNs)
	plan.CPUOnlyNs, plan.GPUOnlyNs = SinglePredictions(costs, cfg)
	plan.Split = len(onCPU) > 0 && len(onGPU) > 0
	if !plan.Split {
		plan.DegenerateReason = ReasonPolicyPinned
		if len(onGPU) > 0 {
			plan.Degenerate = GPU
		}
	}
	return plan
}

// ForcePlan places every costed partition on backend b unconditionally —
// the pinned CPU-only and GPU-only control policies of the coproc
// benchmark, sharing the predicted-time machinery with BuildPlan.
func ForcePlan(costs []PartCost, cfg Config, b Backend) Plan {
	cfg = cfg.Defaults()
	var plan Plan
	plan.CPUOnlyNs, plan.GPUOnlyNs = SinglePredictions(costs, cfg)
	plan = singleBackend(costs, cfg, plan, b)
	plan.DegenerateReason = ReasonPolicyPinned
	return plan
}

// singleBackend rewrites plan so every partition runs on b.
func singleBackend(costs []PartCost, cfg Config, plan Plan, b Backend) Plan {
	all := make([]int, len(costs))
	for i := range costs {
		all[i] = costs[i].Part
	}
	plan.Split = false
	plan.Degenerate = b
	plan.Fragments, plan.FragPart = nil, -1
	if b == GPU {
		plan.CPUParts, plan.GPUParts = nil, all
		plan.CPUNs, plan.GPUNs = 0, plan.GPUOnlyNs
		gpu := newGPUBin(cfg.Device)
		for i := range costs {
			gpu.add(&costs[i])
		}
		plan.TransferNs = gpu.transferNs()
		plan.MakespanNs = plan.GPUOnlyNs
	} else {
		plan.CPUParts, plan.GPUParts = all, nil
		plan.CPUNs, plan.GPUNs, plan.TransferNs = plan.CPUOnlyNs, 0, 0
		plan.MakespanNs = plan.CPUOnlyNs
	}
	return plan
}

// gpuNsOf is the partition's GPU time ignoring schedule interactions,
// used only for the heaviest-first ordering.
func gpuNsOf(dev *gpusim.Config, pc *PartCost) float64 {
	max := 0.0
	for _, c := range pc.GPUBlockCycles {
		if c > max {
			max = c
		}
	}
	return cyclesToNs(dev, max) + transferNs(dev, pc.Bytes, pc.EstOut)
}

// cpuBin accumulates CPU-assigned work; its time is work divided over the
// worker pool (the dynamic task queue balances well below makespan
// granularity).
type cpuBin struct {
	workNs  float64
	threads float64
}

func (b *cpuBin) add(pc *PartCost)              { b.workNs += pc.CPUNs }
func (b *cpuBin) time() float64                 { return b.workNs / b.threads }
func (b *cpuBin) timeWith(pc *PartCost) float64 { return (b.workNs + pc.CPUNs) / b.threads }

// gpuBin accumulates GPU-assigned blocks and transfers; its time replays
// gpusim's earliest-free-SM schedule over the accumulated block costs
// plus the serial H2D/D2H transfers and one launch overhead.
type gpuBin struct {
	dev     gpusim.Config
	sm      []float64 // min-heap on finish time, scheduled by gpusim.Schedule
	scratch []float64 // sm's copy, for pricing a multi-block partition
	// makespan is the latest finish time in sm. Block cycles are never
	// negative, so an SM's finish time only grows and a running maximum
	// equals a scan of the heap.
	makespan float64
	bytes    float64 // H2D input traffic
	outRows  float64 // estimated output rows (D2H at 12 bytes each)
	blocks   int
}

func newGPUBin(dev gpusim.Config) *gpuBin {
	heaps := make([]float64, 2*dev.NumSMs)
	return &gpuBin{dev: dev, sm: heaps[:dev.NumSMs:dev.NumSMs], scratch: heaps[dev.NumSMs:]}
}

// reset empties the bin for reuse.
func (b *gpuBin) reset() {
	clear(b.sm)
	b.makespan, b.bytes, b.outRows, b.blocks = 0, 0, 0, 0
}

// add schedules the partition's blocks onto the bin's SM heap.
func (b *gpuBin) add(pc *PartCost) {
	b.makespan = gpusim.Schedule(b.sm, pc.GPUBlockCycles, b.makespan)
	b.bytes += float64(pc.Bytes)
	b.outRows += pc.EstOut
	b.blocks += len(pc.GPUBlockCycles)
}

// time is the bin's predicted modelled time: schedule makespan plus
// launch overhead (when any block exists) plus transfers.
func (b *gpuBin) time() float64 {
	return b.timeOf(b.makespan, b.blocks, b.bytes, b.outRows)
}

// timeWith is time() if pc were added, without mutating the bin. A single
// block lands on the heap's root, the earliest-free SM, so only a
// multi-block partition replays the schedule, on a scratch copy.
func (b *gpuBin) timeWith(pc *PartCost) float64 {
	makespan := b.makespan
	if len(pc.GPUBlockCycles) == 1 {
		if t := b.sm[0] + pc.GPUBlockCycles[0]; t > makespan {
			makespan = t
		}
	} else {
		copy(b.scratch, b.sm)
		makespan = gpusim.Schedule(b.scratch, pc.GPUBlockCycles, makespan)
	}
	return b.timeOf(makespan, b.blocks+len(pc.GPUBlockCycles),
		b.bytes+float64(pc.Bytes), b.outRows+pc.EstOut)
}

// timeOf is the modelled time of a bin with the given schedule makespan,
// block count and transfers.
func (b *gpuBin) timeOf(makespan float64, blocks int, bytes, outRows float64) float64 {
	if blocks > 0 {
		makespan += b.dev.KernelLaunchCycles
	}
	return cyclesToNs(&b.dev, makespan) + transferNs(&b.dev, int(bytes), outRows)
}

func (b *gpuBin) transferNs() float64 {
	return transferNs(&b.dev, int(b.bytes), b.outRows)
}

// transferNs is the modelled H2D+D2H staging time for the given input
// bytes and estimated output rows (12 bytes per result row).
func transferNs(dev *gpusim.Config, inBytes int, outRows float64) float64 {
	return (float64(inBytes) + outRows*12) / dev.PCIeBandwidth * 1e9
}

func cyclesToNs(dev *gpusim.Config, cycles float64) float64 {
	return cycles / dev.ClockHz * 1e9
}
