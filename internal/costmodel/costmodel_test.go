package costmodel

import (
	"math"
	"sort"
	"testing"

	"skewjoin/internal/freqtable"
	"skewjoin/internal/gpupart"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

func zipfPair(t *testing.T, n int, theta float64) (relation.Relation, relation.Relation) {
	t.Helper()
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g.Pair(n)
}

func TestCalibrateProducesValidConstants(t *testing.T) {
	r, s := zipfPair(t, 1<<15, 0.8)
	cal := Calibrate(r, s, 2)
	if !cal.Valid() {
		t.Fatalf("Calibrate = %+v, not valid", cal)
	}
	// The clamp bounds are the sanity range; a real micro-run should land
	// strictly inside it.
	if cal.BuildNsPerTuple <= 0.1 || cal.BuildNsPerTuple >= 1000 {
		t.Errorf("BuildNsPerTuple %g outside plausible range", cal.BuildNsPerTuple)
	}
	if cal.ProbeNsPerUnit <= 0.1 || cal.ProbeNsPerUnit >= 1000 {
		t.Errorf("ProbeNsPerUnit %g outside plausible range", cal.ProbeNsPerUnit)
	}
}

func TestCalibrateTinyInputFallsBack(t *testing.T) {
	r := relation.Relation{Tuples: make([]relation.Tuple, 8)}
	if cal := Calibrate(r, r, 1); cal != DefaultCalibration() {
		t.Fatalf("tiny-input calibration = %+v, want defaults", cal)
	}
}

func TestCostsCoverNonEmptyPartitions(t *testing.T) {
	r, s := zipfPair(t, 1<<14, 1.0)
	rcfg := radix.Config{Threads: 2, Bits1: 4, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	costs := Costs(pr, ps, Config{})
	seen := make(map[int]bool)
	var nR, nS int
	for _, pc := range costs {
		if seen[pc.Part] {
			t.Fatalf("partition %d costed twice", pc.Part)
		}
		seen[pc.Part] = true
		if pc.CPUNs <= 0 || pc.GPUCycles <= 0 || len(pc.GPUBlockCycles) == 0 {
			t.Fatalf("partition %d has degenerate cost: %+v", pc.Part, pc)
		}
		nR += pc.NR
		nS += pc.NS
	}
	for p := 0; p < pr.Fanout(); p++ {
		if pr.Size(p) > 0 && ps.Size(p) > 0 && !seen[p] {
			t.Fatalf("non-empty partition %d missing from costs", p)
		}
	}
	// Zipf pairs share a universe, so no partition pair can be one-sided
	// empty here: the costed totals must cover the inputs.
	if nR != r.Len() || nS != s.Len() {
		t.Fatalf("costed %d/%d tuples, inputs %d/%d", nR, nS, r.Len(), s.Len())
	}
}

func TestEstimateTracksSkewedOutput(t *testing.T) {
	// One hot key holding half of each side: true output is dominated by
	// the hot key's cross product. The sampled estimate must get within a
	// small factor — this is what separates the hot partition from the
	// tail for the planner.
	n := 1 << 12
	rPart := make([]relation.Tuple, n)
	sPart := make([]relation.Tuple, n)
	for i := range rPart {
		k := relation.Key(i)
		if i%2 == 0 {
			k = 7
		}
		rPart[i] = relation.Tuple{Key: k, Payload: relation.Payload(i)}
		sPart[i] = relation.Tuple{Key: k, Payload: relation.Payload(i)}
	}
	estOut, topR := estimatePartition(rPart, sPart, 64, freqtable.New(64))
	trueOut := float64(n/2) * float64(n/2)
	if estOut < trueOut/4 || estOut > trueOut*4 {
		t.Fatalf("estOut = %g, true %g (off by more than 4x)", estOut, trueOut)
	}
	if topR < float64(n/2)/4 {
		t.Fatalf("topR = %g, true hot frequency %d", topR, n/2)
	}
}

func TestBlockCyclesTracksSimulator(t *testing.T) {
	// The analytic block model must agree with what gpusim actually
	// charges for ProbeJoinBlock within a loose factor — it mirrors the
	// same recipe but estimates visits/matches from samples.
	r, s := zipfPair(t, 1<<13, 1.0)
	rcfg := radix.Config{Threads: 1, Bits1: 3, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	dev := gpusim.NewDevice(gpusim.Coupled())
	capacity := dev.PartitionCapacityTuples()

	for p := 0; p < pr.Fanout(); p++ {
		nR, nS := pr.Size(p), ps.Size(p)
		if nR == 0 || nS == 0 || nR > capacity {
			continue
		}
		costs := Costs(pr, ps, Config{Device: dev.Config()})
		var pc *PartCost
		for i := range costs {
			if costs[i].Part == p {
				pc = &costs[i]
			}
		}
		if pc == nil {
			t.Fatalf("partition %d not costed", p)
		}
		rPart, sPart := pr.Part(p), ps.Part(p)
		var actual float64
		dev.Launch("join", "test", 1, func(b *gpusim.Block) {
			gpupart.ProbeJoinBlock(b, rPart, sPart)
			actual = b.Cycles()
		})
		predicted := pc.GPUCycles
		if ratio := predicted / actual; ratio < 0.25 || ratio > 4 {
			t.Errorf("partition %d: predicted %g cycles, simulator charged %g (ratio %.2f)",
				p, predicted, actual, ratio)
		}
	}
}

// skewedCosts builds a cost set with one dominant partition and a tail,
// at scales large enough to clear the default win thresholds.
func skewedCosts(t *testing.T, n int) ([]PartCost, Config, int) {
	t.Helper()
	g, err := zipf.New(zipf.Config{Theta: 1.1, Universe: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r, s := g.Pair(n)
	rcfg := radix.Config{Threads: 1, Bits1: 6, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	cfg := Config{Device: gpusim.Coupled(), Calib: DefaultCalibration(), Threads: 1}
	costs := Costs(pr, ps, cfg)
	hot, hotNs := -1, 0.0
	for _, pc := range costs {
		if pc.CPUNs > hotNs {
			hot, hotNs = pc.Part, pc.CPUNs
		}
	}
	return costs, cfg, hot
}

func TestBuildPlanSplitsSkewedWorkload(t *testing.T) {
	costs, cfg, hot := skewedCosts(t, 1<<18)
	plan := BuildPlan(costs, cfg)
	if !plan.Split {
		t.Fatalf("skewed workload should split: %+v", plan)
	}
	if len(plan.CPUParts) == 0 || len(plan.GPUParts) == 0 {
		t.Fatalf("split plan must use both backends: %+v", plan)
	}
	placed := len(plan.CPUParts) + len(plan.GPUParts)
	if plan.Fragmented() {
		placed++ // the fragmented partition appears in neither list
	}
	if placed != len(costs) {
		t.Fatalf("plan covers %d of %d partitions (frag=%v)",
			placed, len(costs), plan.Fragmented())
	}
	// The makespan must beat both single-backend controls by the
	// configured margin.
	better := math.Min(plan.CPUOnlyNs, plan.GPUOnlyNs)
	if plan.MakespanNs >= better {
		t.Fatalf("split makespan %g not better than controls cpu=%g gpu=%g",
			plan.MakespanNs, plan.CPUOnlyNs, plan.GPUOnlyNs)
	}
	// The hot partition must be handled specially: either fragmented
	// across both backends (FragPart names it, with fragments on both
	// sides covering its S range exactly once), or isolated whole on the
	// minority side while the tail fills the other.
	if plan.Fragmented() {
		if plan.FragPart != hot {
			t.Errorf("fragmented partition %d, want hot partition %d", plan.FragPart, hot)
		}
		assertFragmentsCover(t, plan, costs)
		return
	}
	hotSide, otherSide := plan.CPUParts, plan.GPUParts
	if !contains(plan.CPUParts, hot) {
		hotSide, otherSide = plan.GPUParts, plan.CPUParts
	}
	if len(hotSide) >= len(otherSide) {
		t.Errorf("hot partition %d not isolated: its backend holds %d partitions vs %d",
			hot, len(hotSide), len(otherSide))
	}
}

// assertFragmentsCover checks the plan's fragments tile the fragmented
// partition's probe side exactly once with both backends represented.
func assertFragmentsCover(t *testing.T, plan Plan, costs []PartCost) {
	t.Helper()
	var hot *PartCost
	for i := range costs {
		if costs[i].Part == plan.FragPart {
			hot = &costs[i]
		}
	}
	if hot == nil {
		t.Fatalf("fragmented partition %d not among costed partitions", plan.FragPart)
	}
	if contains(plan.CPUParts, plan.FragPart) || contains(plan.GPUParts, plan.FragPart) {
		t.Errorf("fragmented partition %d also placed whole", plan.FragPart)
	}
	frags := append([]Fragment(nil), plan.Fragments...)
	sort.Slice(frags, func(a, b int) bool { return frags[a].Lo < frags[b].Lo })
	next, cpuN, gpuN := 0, 0, 0
	for _, f := range frags {
		if f.Part != plan.FragPart {
			t.Fatalf("fragment of partition %d, want %d", f.Part, plan.FragPart)
		}
		if f.Lo != next || f.Hi <= f.Lo {
			t.Fatalf("fragments do not tile S: got [%d,%d) at offset %d", f.Lo, f.Hi, next)
		}
		next = f.Hi
		if f.Backend == CPU {
			cpuN++
		} else {
			gpuN++
		}
	}
	if next != hot.NS {
		t.Errorf("fragments cover S[0:%d), partition has %d probe tuples", next, hot.NS)
	}
	if cpuN == 0 || gpuN == 0 {
		t.Errorf("fragments must use both backends: cpu=%d gpu=%d", cpuN, gpuN)
	}
}

// fragmentTrigger recomputes the fragmentation predicate BuildPlan uses:
// the hot partition's cheaper-backend solo time exceeds the
// balanced-makespan bound by FragmentFactor.
func fragmentTrigger(costs []PartCost, cfg Config) bool {
	cfg = cfg.Defaults()
	_, hotNs := hotAtomic(costs, cfg)
	return hotNs > cfg.FragmentFactor*BalancedBound(costs, cfg)
}

// TestFragmentPlanGoldenDeepSkew pins the zipf 1.2–1.4 regime: the hot
// partition dominates any atomic placement, so the plan must fragment it
// across both backends and beat both single-backend controls — the regime
// the whole-partition planner provably cannot win.
func TestFragmentPlanGoldenDeepSkew(t *testing.T) {
	for _, theta := range []float64{1.2, 1.3, 1.4} {
		r, s := zipfPair(t, 1<<18, theta)
		rcfg := radix.Config{Threads: 1, Bits1: 6, Bits2: 0}
		pr := radix.Partition(r.Tuples, rcfg, nil)
		ps := radix.Partition(s.Tuples, rcfg, nil)
		cfg := Config{Device: gpusim.Coupled(), Calib: DefaultCalibration(), Threads: 1}
		costs := Costs(pr, ps, cfg)
		if !fragmentTrigger(costs, cfg) {
			t.Fatalf("zipf %.1f: hot partition does not exceed the balanced bound", theta)
		}
		plan := BuildPlan(costs, cfg)
		if !plan.Split || !plan.Fragmented() {
			t.Fatalf("zipf %.1f: want fragmented split, got split=%v frag=%v reason=%q",
				theta, plan.Split, plan.Fragmented(), plan.DegenerateReason)
		}
		assertFragmentsCover(t, plan, costs)
		better := math.Min(plan.CPUOnlyNs, plan.GPUOnlyNs)
		if plan.MakespanNs >= better {
			t.Errorf("zipf %.1f: fragmented makespan %g not better than controls cpu=%g gpu=%g",
				theta, plan.MakespanNs, plan.CPUOnlyNs, plan.GPUOnlyNs)
		}
		if plan.MakespanNs < plan.BalancedNs {
			t.Errorf("zipf %.1f: makespan %g below the balanced lower bound %g",
				theta, plan.MakespanNs, plan.BalancedNs)
		}
	}
}

// TestFragmentChosenIffTriggered sweeps skew and checks both directions
// of the gate: a fragmented plan implies the hot partition exceeded the
// balanced bound, and a quiet trigger implies no fragmentation.
func TestFragmentChosenIffTriggered(t *testing.T) {
	for _, theta := range []float64{0.0, 0.5, 0.8, 1.0, 1.1, 1.2, 1.4} {
		r, s := zipfPair(t, 1<<17, theta)
		rcfg := radix.Config{Threads: 1, Bits1: 6, Bits2: 0}
		pr := radix.Partition(r.Tuples, rcfg, nil)
		ps := radix.Partition(s.Tuples, rcfg, nil)
		cfg := Config{Device: gpusim.Coupled(), Calib: DefaultCalibration(), Threads: 1}
		costs := Costs(pr, ps, cfg)
		plan := BuildPlan(costs, cfg)
		if plan.Fragmented() && !fragmentTrigger(costs, cfg) {
			t.Errorf("zipf %.1f: fragmented without the hot partition exceeding the bound", theta)
		}
		if !fragmentTrigger(costs, cfg) && plan.Fragmented() {
			t.Errorf("zipf %.1f: fragment plan chosen below the trigger", theta)
		}
	}
}

// TestUniformNeverFragments is the A/A control: without skew no partition
// can exceed the balanced bound by the fragment factor, so the plan must
// never pay replication.
func TestUniformNeverFragments(t *testing.T) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 18} {
		r, s := zipfPair(t, n, 0)
		rcfg := radix.Config{Threads: 1, Bits1: 6, Bits2: 0}
		pr := radix.Partition(r.Tuples, rcfg, nil)
		ps := radix.Partition(s.Tuples, rcfg, nil)
		cfg := Config{Device: gpusim.Coupled(), Calib: DefaultCalibration(), Threads: 1}
		costs := Costs(pr, ps, cfg)
		plan := BuildPlan(costs, cfg)
		if plan.Fragmented() {
			t.Errorf("n=%d uniform input fragmented: %+v", n, plan.Fragments)
		}
	}
}

// TestFragmentsDisabled pins the off switch at a size where the win
// thresholds bite: with Fragments < 0 the partition stays the atomic
// unit, deep skew degenerates, and the reason names the hot partition as
// the blocker — while the same costs with fragmentation enabled yield a
// winning fragmented split.
func TestFragmentsDisabled(t *testing.T) {
	r, s := zipfPair(t, 1<<14, 1.4)
	rcfg := radix.Config{Threads: 1, Bits1: 6, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	cfg := Config{Device: gpusim.Coupled(), Calib: DefaultCalibration(), Threads: 1, Fragments: -1}
	costs := Costs(pr, ps, cfg)
	plan := BuildPlan(costs, cfg)
	if plan.Fragmented() {
		t.Fatalf("Fragments=-1 still fragmented: %+v", plan.Fragments)
	}
	if plan.Split {
		t.Fatalf("deep skew without fragmentation should degenerate here: %+v", plan)
	}
	if plan.DegenerateReason != ReasonHotPartitionDominates {
		t.Errorf("degenerate reason %q, want %q", plan.DegenerateReason, ReasonHotPartitionDominates)
	}

	cfg.Fragments = 0 // default granularity
	frag := BuildPlan(costs, cfg)
	if !frag.Split || !frag.Fragmented() {
		t.Fatalf("fragmentation should rescue this regime: split=%v frag=%v reason=%q",
			frag.Split, frag.Fragmented(), frag.DegenerateReason)
	}
	if frag.MakespanNs >= plan.MakespanNs {
		t.Errorf("fragmented makespan %g not better than degenerate %g",
			frag.MakespanNs, plan.MakespanNs)
	}
}

// TestDegenerateReasonMinWin pins the other reason: a uniform tiny input
// degenerates because the win is under the floor, not because any
// partition dominates.
func TestDegenerateReasonMinWin(t *testing.T) {
	r, s := zipfPair(t, 1<<12, 0)
	rcfg := radix.Config{Threads: 1, Bits1: 6, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	cfg := Config{Device: gpusim.Coupled(), Calib: DefaultCalibration(), Threads: 1}
	costs := Costs(pr, ps, cfg)
	plan := BuildPlan(costs, cfg)
	if plan.Split {
		t.Fatalf("tiny uniform input should degenerate: %+v", plan)
	}
	if plan.DegenerateReason != ReasonMinWinThreshold {
		t.Errorf("degenerate reason %q, want %q", plan.DegenerateReason, ReasonMinWinThreshold)
	}
}

func contains(parts []int, p int) bool {
	for _, q := range parts {
		if q == p {
			return true
		}
	}
	return false
}

func TestBuildPlanDegeneratesOnTinyInput(t *testing.T) {
	costs, cfg, _ := skewedCosts(t, 1<<10)
	plan := BuildPlan(costs, cfg)
	if plan.Split {
		t.Fatalf("tiny input should degenerate, got split: %+v", plan)
	}
	if len(plan.CPUParts) != 0 && len(plan.GPUParts) != 0 {
		t.Fatalf("degenerate plan uses both backends: %+v", plan)
	}
	if plan.MakespanNs != math.Min(plan.CPUOnlyNs, plan.GPUOnlyNs) {
		t.Fatalf("degenerate makespan %g != better control (cpu=%g gpu=%g)",
			plan.MakespanNs, plan.CPUOnlyNs, plan.GPUOnlyNs)
	}
}

func TestBuildPlanDegeneratesToGPUOnA100(t *testing.T) {
	// On a uniform workload an A100 is orders of magnitude faster than
	// one host core and the output is too small for PCIe to matter;
	// splitting cannot win and the plan must degenerate to the GPU.
	// (Under heavy skew even an A100 plan may legitimately split — the
	// giant output makes D2H transfer the bottleneck, and keeping some
	// output-heavy partitions on the CPU avoids it.)
	g, err := zipf.New(zipf.Config{Theta: 0, Universe: 1 << 18, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r, s := g.Pair(1 << 18)
	rcfg := radix.Config{Threads: 1, Bits1: 6, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	cfg := Config{Calib: DefaultCalibration(), Threads: 1} // zero Device = A100
	plan := BuildPlan(Costs(pr, ps, cfg), cfg)
	if plan.Split || plan.Degenerate != GPU {
		t.Fatalf("A100 plan should degenerate to GPU: %+v", plan)
	}
}

func TestForcePlanPinsBackend(t *testing.T) {
	costs, cfg, _ := skewedCosts(t, 1<<14)
	cpuPlan := ForcePlan(costs, cfg, CPU)
	if cpuPlan.Split || cpuPlan.Degenerate != CPU || len(cpuPlan.GPUParts) != 0 ||
		len(cpuPlan.CPUParts) != len(costs) {
		t.Fatalf("ForcePlan(CPU) = %+v", cpuPlan)
	}
	gpuPlan := ForcePlan(costs, cfg, GPU)
	if gpuPlan.Split || gpuPlan.Degenerate != GPU || len(gpuPlan.CPUParts) != 0 ||
		len(gpuPlan.GPUParts) != len(costs) {
		t.Fatalf("ForcePlan(GPU) = %+v", gpuPlan)
	}
	if gpuPlan.TransferNs <= 0 {
		t.Errorf("GPU-pinned plan has no transfer time: %+v", gpuPlan)
	}
}

func TestStaticPlanAlternates(t *testing.T) {
	costs, cfg, _ := skewedCosts(t, 1<<14)
	if len(costs) < 2 {
		t.Fatalf("need >= 2 partitions, got %d", len(costs))
	}
	plan := StaticPlan(costs, cfg)
	if !plan.Split {
		t.Fatalf("static plan with %d partitions should split: %+v", len(costs), plan)
	}
	if got := len(plan.CPUParts) + len(plan.GPUParts); got != len(costs) {
		t.Fatalf("static plan covers %d of %d partitions", got, len(costs))
	}
	if d := len(plan.CPUParts) - len(plan.GPUParts); d < 0 || d > 1 {
		t.Fatalf("round-robin imbalance: %d cpu vs %d gpu", len(plan.CPUParts), len(plan.GPUParts))
	}
}
