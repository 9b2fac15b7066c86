package skewjoin

import (
	"sort"
	"testing"
)

// fragmentOptions returns Split options that let the model fragment at
// test-sized inputs: a fixed calibration (no micro-run noise), the
// coupled device, and the win floor lowered to a hair above zero so the
// 25ms default doesn't mask the decision at a few thousand tuples.
func fragmentOptions(fragments int) Options {
	cal := Calibration{BuildNsPerTuple: 10, ProbeNsPerUnit: 2.5}
	return Options{
		Threads: 1, Device: CoupledDevice(),
		Calibration: &cal, Fragments: fragments,
		SplitMinWinNs: 1, SplitWinFraction: 0.01,
	}
}

// topKeyCounts reduces a record multiset to its k heaviest (count, key)
// groups — the exact top-k a grouping consumer would report.
type keyCount struct {
	key   Key
	count int
}

func topKeyCounts(recs []JoinResult, k int) []keyCount {
	counts := map[Key]int{}
	for _, r := range recs {
		counts[r.Key]++
	}
	out := make([]keyCount, 0, len(counts))
	for key, c := range counts {
		out = append(out, keyCount{key: key, count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return out[i].key < out[j].key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestFragmentDifferential is the fragment-and-replicate correctness
// oracle: across deepening skew and fragment granularities, a fragmented
// model split must emit the exact record multiset of the blocking CPU
// oracle — replicating the hot build side to both backends and splitting
// its probe side must never duplicate or drop a match — and the exact
// top-k derived from the merged output must match the oracle's. At
// zipf >= 1.2 the plan is additionally required to have fragmented, so
// the sweep can't silently pass through the whole-partition path.
func TestFragmentDifferential(t *testing.T) {
	cells := []struct {
		theta     float64
		n         int
		fragments int
	}{
		{1.0, 4096, 8},
		{1.2, 4096, 2},
		{1.2, 4096, 4},
		{1.2, 4096, 8},
		{1.4, 2048, 2},
		{1.4, 2048, 4},
		{1.4, 2048, 8},
	}
	for _, c := range cells {
		if testing.Short() && c.theta == 1.0 {
			continue // -short keeps the must-fragment regime
		}
		r, s, err := GenerateZipfPair(c.n, c.theta, 42)
		if err != nil {
			t.Fatal(err)
		}
		want := Expected(r, s)
		oracle := joinRecords(t, Cbase, r, s, want, Options{Threads: 3})

		opts := fragmentOptions(c.fragments)
		recs := joinRecords(t, Split, r, s, want, opts)
		if !sameRecords(recs, oracle) {
			t.Errorf("theta=%g frags=%d: fragmented split records != cpu oracle",
				c.theta, c.fragments)
		}
		wantTop := topKeyCounts(oracle, 5)
		gotTop := topKeyCounts(recs, 5)
		if len(wantTop) != len(gotTop) {
			t.Fatalf("theta=%g frags=%d: top-k sizes differ", c.theta, c.fragments)
		}
		for i := range wantTop {
			if wantTop[i] != gotTop[i] {
				t.Errorf("theta=%g frags=%d: top-k[%d] = %+v, oracle %+v",
					c.theta, c.fragments, i, gotTop[i], wantTop[i])
			}
		}

		// The sweep must actually exercise the fragment path where the
		// hot partition dominates.
		res, err := Join(Split, r, s, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Split == nil {
			t.Fatalf("theta=%g frags=%d: no split stats", c.theta, c.fragments)
		}
		if c.theta >= 1.2 {
			if !res.Split.Fragmented() {
				t.Errorf("theta=%g frags=%d: plan did not fragment: %+v",
					c.theta, c.fragments, res.Split.Plan)
			}
			if res.Split.CPUFragments == 0 || res.Split.GPUFragments == 0 {
				t.Errorf("theta=%g frags=%d: fragments on one backend only: cpu=%d gpu=%d",
					c.theta, c.fragments, res.Split.CPUFragments, res.Split.GPUFragments)
			}
		}
	}
}

// TestFragmentDisabledDegeneratesWithReason pins the satellite planner
// fix end to end: at deep skew with fragmentation switched off and the
// default win thresholds, the executed plan degenerates and names the
// hot partition as the reason.
func TestFragmentDisabledDegeneratesWithReason(t *testing.T) {
	r, s, err := GenerateZipfPair(1<<14, 1.4, 42)
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibration{BuildNsPerTuple: 10, ProbeNsPerUnit: 2.5}
	res, err := Join(Split, r, s, &Options{
		Threads: 1, Device: CoupledDevice(), Calibration: &cal, Fragments: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Split.Plan
	if plan.Split || plan.Fragmented() {
		t.Fatalf("fragments disabled at deep skew should degenerate: %+v", plan)
	}
	if plan.DegenerateReason != "hot-partition-dominates" {
		t.Errorf("degenerate reason %q, want hot-partition-dominates", plan.DegenerateReason)
	}

	// Same input with fragmentation back on: the plan fragments and the
	// run stays oracle-identical.
	want := Expected(r, s)
	res2, err := Join(Split, r, s, &Options{
		Threads: 1, Device: CoupledDevice(), Calibration: &cal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary() != want {
		t.Fatalf("fragmented run summary %+v, want %+v", res2.Summary(), want)
	}
	if !res2.Split.Fragmented() {
		t.Errorf("default options at deep skew should fragment: %+v", res2.Split.Plan)
	}
}

// TestRecommendSplitFragmentPlan covers the planner surface: a deep-skew
// recommendation carries the fragment entries, and its degenerate cousin
// (fragments disabled) carries the explicit reason string instead of
// degenerating silently.
func TestRecommendSplitFragmentPlan(t *testing.T) {
	r, s, err := GenerateZipfPair(1<<15, 1.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibration{BuildNsPerTuple: 10, ProbeNsPerUnit: 2.5}
	cfg := SplitConfig{
		Threads: 1, Device: CoupledDevice(), Calibration: &cal,
		MinWinNs: 1, WinFraction: 0.01,
	}
	rec := RecommendSplit(r, s, cfg)
	plan := rec.Split
	if plan == nil || !plan.Split || !plan.Fragmented() {
		t.Fatalf("deep skew should plan a fragmented split: %+v", plan)
	}
	if plan.FragmentedPart < 0 {
		t.Errorf("fragmented plan missing FragmentedPart: %+v", plan)
	}
	cpuN, gpuN := plan.FragmentCounts()
	if cpuN == 0 || gpuN == 0 {
		t.Errorf("fragment counts cpu=%d gpu=%d, want both > 0", cpuN, gpuN)
	}
	covered := 0
	for _, f := range plan.Fragments {
		if f.Part != plan.FragmentedPart || f.Hi <= f.Lo {
			t.Fatalf("bad fragment %+v", f)
		}
		covered += f.Hi - f.Lo
	}
	if covered == 0 {
		t.Error("fragments cover no probe tuples")
	}

	cfg.Fragments = -1
	rec = RecommendSplit(r, s, cfg)
	if rec.Split.Fragmented() {
		t.Fatalf("Fragments=-1 still fragmented: %+v", rec.Split)
	}
	if rec.Split.Split {
		return // whole-partition split still wins here; nothing to classify
	}
	if rec.Split.DegenerateReason == "" {
		t.Error("degenerate recommendation must carry a reason")
	}
}
