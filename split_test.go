package skewjoin

import (
	"sort"
	"sync"
	"testing"
)

// recordCollector gathers every batch a join hands its volcano consumers,
// across all workers (CPU threads and simulated SMs alike).
type recordCollector struct {
	mu   sync.Mutex
	recs []JoinResult
}

func (c *recordCollector) consumer(worker int) ResultConsumer {
	return func(batch []JoinResult) {
		c.mu.Lock()
		c.recs = append(c.recs, batch...)
		c.mu.Unlock()
	}
}

// sorted returns the collected records in canonical order, so two joins
// that emit the same multiset compare equal regardless of worker
// interleaving.
func (c *recordCollector) sorted() []JoinResult {
	sort.Slice(c.recs, func(i, j int) bool {
		a, b := c.recs[i], c.recs[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.PayloadR != b.PayloadR {
			return a.PayloadR < b.PayloadR
		}
		return a.PayloadS < b.PayloadS
	})
	return c.recs
}

// joinRecords runs one join with a collector attached and returns its
// canonically sorted output records.
func joinRecords(t *testing.T, alg Algorithm, r, s Relation, want Summary, opts Options) []JoinResult {
	t.Helper()
	col := &recordCollector{}
	opts.Consumer = col.consumer
	res, err := Join(alg, r, s, &opts)
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	if res.Summary() != want {
		t.Fatalf("%s: summary %+v, want %+v", alg, res.Summary(), want)
	}
	if uint64(len(col.recs)) != res.Matches {
		t.Fatalf("%s: consumers saw %d records, result reports %d",
			alg, len(col.recs), res.Matches)
	}
	return col.sorted()
}

// TestSplitDifferential is the co-processing correctness oracle: for every
// skew level, backend=split must emit the exact same record multiset as
// the CPU-only and GPU-only algorithms — not just a matching checksum.
// SplitPolicyStatic forces a genuine two-backend split even at test-sized
// inputs (the model policy's 25ms win floor makes it rightly degenerate
// there); the model policy is run too, covering the degenerate paths.
func TestSplitDifferential(t *testing.T) {
	for _, theta := range []float64{0, 0.75, 1.25} {
		if testing.Short() && theta == 0.75 {
			continue // -short keeps the uniform and heavy-skew extremes
		}
		// 4096 tuples keeps the theta-1.25 output (the top key's cross
		// product) small enough to canonically sort six times per cell.
		r, s, err := GenerateZipfPair(4096, theta, 42)
		if err != nil {
			t.Fatal(err)
		}
		want := Expected(r, s)
		cal := Calibration{BuildNsPerTuple: 10, ProbeNsPerUnit: 2.5}
		base := Options{Threads: 3, Device: CoupledDevice(), Calibration: &cal}

		cpuRecs := joinRecords(t, Cbase, r, s, want, Options{Threads: 3})
		gpuRecs := joinRecords(t, Gbase, r, s, want, Options{})

		for _, policy := range []SplitPolicy{SplitPolicyStatic, SplitPolicyModel, SplitPolicyCPU, SplitPolicyGPU} {
			opts := base
			opts.SplitPolicy = policy
			splitRecs := joinRecords(t, Split, r, s, want, opts)
			if !sameRecords(splitRecs, cpuRecs) {
				t.Errorf("theta=%g policy=%s: split records != cpu records", theta, policy)
			}
			if !sameRecords(splitRecs, gpuRecs) {
				t.Errorf("theta=%g policy=%s: split records != gpu records", theta, policy)
			}
		}
	}
}

func sameRecords(a, b []JoinResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSplitStaticUsesBothBackends pins down that the differential test
// above actually exercised co-processing: under the static policy both
// sides must have produced output.
func TestSplitStaticUsesBothBackends(t *testing.T) {
	r, s, err := GenerateZipfPair(20000, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibration{BuildNsPerTuple: 10, ProbeNsPerUnit: 2.5}
	res, err := Join(Split, r, s, &Options{
		Threads: 2, Device: CoupledDevice(), SplitPolicy: SplitPolicyStatic,
		Calibration: &cal,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Split
	if st == nil || st.Plan == nil {
		t.Fatal("split run missing SplitStats")
	}
	if !st.Plan.Split || len(st.Plan.CPUParts) == 0 || len(st.Plan.GPUParts) == 0 {
		t.Fatalf("static policy did not split: %+v", st.Plan)
	}
	if st.CPUJoinNs <= 0 || st.GPUJoinNs <= 0 {
		t.Fatalf("both join sides should have run: cpu=%dns gpu=%dns",
			st.CPUJoinNs, st.GPUJoinNs)
	}
	if st.Imbalance < 1 {
		t.Fatalf("imbalance %g < 1", st.Imbalance)
	}
	if st.MakespanNs != st.PartitionNs+st.PlanNs+st.JoinSideNs() {
		t.Fatalf("makespan %d != %d + %d + %d",
			st.MakespanNs, st.PartitionNs, st.PlanNs, st.JoinSideNs())
	}
	if res.Phase("partition") <= 0 || res.Phase("plan") <= 0 || res.Phase("join") <= 0 {
		t.Fatalf("split phases malformed: %+v", res.Phases)
	}
}

// TestRecommendSplitGoldenSkewed is the planner's golden placement test:
// on a heavily skewed workload against the coupled device, the model must
// choose a genuine split with the hot partition and the tail on different
// backends.
func TestRecommendSplitGoldenSkewed(t *testing.T) {
	r, s, err := GenerateZipfPair(1<<18, 1.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibration{BuildNsPerTuple: 10, ProbeNsPerUnit: 2.5}
	rec := RecommendSplit(r, s, SplitConfig{
		Threads: 1, Device: CoupledDevice(), Calibration: &cal,
	})
	if !rec.SkewDetected {
		t.Error("zipf-1.1 sample should detect skew")
	}
	plan := rec.Split
	if plan == nil {
		t.Fatal("RecommendSplit returned no split plan")
	}
	if !plan.Split || plan.Recommended() != BackendSplit {
		t.Fatalf("skewed coupled workload should split: %+v", plan)
	}
	if plan.PredictedMakespanNs >= plan.PredictedCPUOnlyNs ||
		plan.PredictedMakespanNs >= plan.PredictedGPUOnlyNs {
		t.Fatalf("predicted makespan %d must beat both controls (cpu=%d gpu=%d)",
			plan.PredictedMakespanNs, plan.PredictedCPUOnlyNs, plan.PredictedGPUOnlyNs)
	}
	// The hot partition is isolated on the minority backend (on the
	// coupled device: the CPU — the Gbase-style kernel re-reads S per
	// sub-list, so the oversized hot partition is the GPU's worst case),
	// while the tail fills the other side.
	if len(plan.CPUParts) == 0 || len(plan.GPUParts) == 0 {
		t.Fatalf("split plan must use both backends: %+v", plan)
	}
	if plan.Calibration != cal {
		t.Errorf("plan calibration %+v, want %+v", plan.Calibration, cal)
	}
}

// TestRecommendSplitGoldenUniform: a uniform workload's join is
// milliseconds; the predicted win can never clear the absolute floor, so
// the plan must degenerate to the cheaper single backend.
func TestRecommendSplitGoldenUniform(t *testing.T) {
	r, s, err := GenerateZipfPair(1<<16, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibration{BuildNsPerTuple: 10, ProbeNsPerUnit: 2.5}
	rec := RecommendSplit(r, s, SplitConfig{
		Threads: 1, Device: CoupledDevice(), Calibration: &cal,
	})
	plan := rec.Split
	if plan == nil {
		t.Fatal("RecommendSplit returned no split plan")
	}
	if plan.Split {
		t.Fatalf("uniform workload should degenerate: %+v", plan)
	}
	if got := plan.Recommended(); got != BackendCPU && got != BackendGPU {
		t.Fatalf("degenerate recommendation = %q", got)
	}
	if len(plan.CPUParts) != 0 && len(plan.GPUParts) != 0 {
		t.Fatalf("degenerate plan uses both backends: %+v", plan)
	}
}

// TestSplitModelDegenerateStillJoins: at small sizes the model policy
// degenerates to one backend; the executor must still produce the full
// join through that single side.
func TestSplitModelDegenerateStillJoins(t *testing.T) {
	r, s, err := GenerateZipfPair(5000, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibration{BuildNsPerTuple: 10, ProbeNsPerUnit: 2.5}
	res, err := Join(Split, r, s, &Options{
		Threads: 2, Device: CoupledDevice(), Calibration: &cal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary() != Expected(r, s) {
		t.Fatalf("degenerate split: got %+v, want %+v", res.Summary(), Expected(r, s))
	}
	if res.Split == nil || res.Split.Plan == nil || res.Split.Plan.Split {
		t.Fatalf("expected a degenerate plan, got %+v", res.Split)
	}
}

// TestPlannerStride is the regression test for the SampleRate-to-stride
// conversion: truncation used to turn rate 0.15 into stride 6 (16.7%,
// over-sampling), and rates above 1.0 silently became stride 1 by
// accident rather than by definition.
func TestPlannerStride(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want int
	}{
		{0.15, 7}, // 1/0.15 = 6.67 rounds to 7; truncation gave 6
		{1.5, 1},  // clamped to 1.0: documented, not accidental
		{1.0, 1},
		{0.5, 2},
		{0.03, 33},  // 1/0.03 = 33.3 rounds to 33
		{0.01, 100}, // the default rate
	} {
		cfg := PlannerConfig{SampleRate: tc.rate}.defaults()
		if got := cfg.stride(); got != tc.want {
			t.Errorf("stride(rate=%g) = %d, want %d", tc.rate, got, tc.want)
		}
	}
	// The zero value must keep the default 1% sampling.
	if got := (PlannerConfig{}).defaults().stride(); got != 100 {
		t.Errorf("default stride = %d, want 100", got)
	}
}
