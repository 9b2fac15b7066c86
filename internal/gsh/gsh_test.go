package gsh

import (
	"testing"

	"skewjoin/internal/gbase"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/oracle"
	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

func workload(t *testing.T, n int, theta float64, seed int64) (relation.Relation, relation.Relation) {
	t.Helper()
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, s := g.Pair(n)
	return r, s
}

func TestJoinMatchesOracleAcrossSkew(t *testing.T) {
	for _, theta := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		r, s := workload(t, 20000, theta, 42)
		want := oracle.Expected(r, s)
		got := Join(r, s, Config{})
		if got.Summary != want {
			t.Errorf("theta=%.2f: got %+v, want %+v", theta, got.Summary, want)
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	var empty relation.Relation
	r, s := workload(t, 1000, 0.8, 7)
	if res := Join(empty, s, Config{}); res.Summary.Count != 0 {
		t.Errorf("empty R: got %d results", res.Summary.Count)
	}
	if res := Join(r, empty, Config{}); res.Summary.Count != 0 {
		t.Errorf("empty S: got %d results", res.Summary.Count)
	}
}

func TestSkewPathEngagesOnlyUnderSkew(t *testing.T) {
	// Paper §V-B: "When the zipf factor is 0–0.4, none of the partitions is
	// larger than the shared memory, and therefore our skew handling steps
	// are not used."
	r, s := workload(t, 50000, 0, 3)
	res := Join(r, s, Config{})
	if res.Stats.LargePartitions != 0 {
		t.Errorf("uniform data produced %d large partitions", res.Stats.LargePartitions)
	}
	if res.Stats.SkewBlocks != 0 {
		t.Errorf("uniform data launched %d skew-join blocks", res.Stats.SkewBlocks)
	}

	r, s = workload(t, 100000, 1.0, 3)
	res = Join(r, s, Config{})
	if res.Stats.LargePartitions == 0 {
		t.Error("zipf 1.0 produced no large partitions")
	}
	if res.Stats.SkewedKeys == 0 {
		t.Error("zipf 1.0 detected no skewed keys")
	}
	if res.Stats.SkewBlocks == 0 {
		t.Error("zipf 1.0 launched no skew-join blocks")
	}
}

func TestModelledTimeBeatsGbaseAtHighSkew(t *testing.T) {
	// The headline claim, in shape: GSH outperforms Gbase under heavy skew
	// and is comparable at low skew.
	r, s := workload(t, 100000, 1.0, 11)
	gb := gbase.Join(r, s, gbase.Config{})
	gs := Join(r, s, Config{})
	if gs.Summary != gb.Summary {
		t.Fatalf("summaries differ: gsh %+v vs gbase %+v", gs.Summary, gb.Summary)
	}
	if gs.Phases.Total() >= gb.Phases.Total() {
		t.Errorf("at zipf 1.0 GSH (%v) should beat Gbase (%v)", gs.Phases.Total(), gb.Phases.Total())
	}

	r, s = workload(t, 100000, 0.2, 11)
	gb = gbase.Join(r, s, gbase.Config{})
	gs = Join(r, s, Config{})
	ratio := float64(gs.Phases.Total()) / float64(gb.Phases.Total())
	if ratio > 2.0 || ratio < 0.3 {
		t.Errorf("at zipf 0.2 GSH and Gbase should be comparable, ratio %.2f", ratio)
	}
}

func TestTraceRecordsLaunches(t *testing.T) {
	r, s := workload(t, 30000, 1.0, 5)
	res := Join(r, s, Config{})
	if len(res.Trace) == 0 {
		t.Fatal("no launch records")
	}
	names := map[string]bool{}
	var total int64
	for _, rec := range res.Trace {
		names[rec.PhaseLabel] = true
		total += int64(rec.Duration)
		if rec.Imbalance < 1 {
			t.Errorf("launch %s imbalance %.2f < 1", rec.Name, rec.Imbalance)
		}
	}
	for _, want := range []string{"partition", "nmjoin", "skewjoin"} {
		if !names[want] {
			t.Errorf("trace missing phase %q", want)
		}
	}
	if total != int64(res.Phases.Total()) {
		t.Errorf("trace durations sum %d != total %d", total, res.Phases.Total())
	}
}

func TestPhasesCoverTotal(t *testing.T) {
	r, s := workload(t, 30000, 0.9, 5)
	res := Join(r, s, Config{})
	var sum int64
	for _, p := range res.Phases {
		if p.Duration < 0 {
			t.Errorf("phase %s has negative duration", p.Name)
		}
		sum += int64(p.Duration)
	}
	if sum != int64(res.Phases.Total()) {
		t.Errorf("phases sum %d != total %d", sum, res.Phases.Total())
	}
	if res.AllOther() >= res.Phases.Total() {
		t.Errorf("AllOther %v should exclude the partition phase (total %v)", res.AllOther(), res.Phases.Total())
	}
}

// paperSkewJoinFKNs is the modelled skew join of the paper's scheme, one
// block per skewed R tuple and no S tiles, on the foreign-key workload of
// TestFKWorkloadCorrectAndTilingHelps: GSH's retired STileTuples: -1 mode
// read it at b3d659b, where its 51 skewed R tuples made 51 blocks.
const paperSkewJoinFKNs = 14311

func TestFKWorkloadCorrectAndTilingHelps(t *testing.T) {
	g, err := zipf.New(zipf.Config{Theta: 1.0, Universe: 20000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r, s := g.FKPair(120000)
	want := oracle.Expected(r, s)
	if want.Count != uint64(s.Len()) {
		t.Fatalf("FK join output %d != |S| %d", want.Count, s.Len())
	}
	res := Join(r, s, Config{Device: gpusim.Config{SharedMemBytes: 8 << 10}})
	if res.Summary != want {
		t.Fatalf("FK join wrong: got %+v, want %+v", res.Summary, want)
	}
	if res.Stats.SkewedKeys == 0 {
		t.Fatal("no skewed keys detected on the FK workload")
	}
	if d := res.Phase("skewjoin").Nanoseconds(); d >= paperSkewJoinFKNs {
		t.Errorf("tiled skew join %d ns should beat the paper scheme's %d ns", d, paperSkewJoinFKNs)
	}
}

// TestSkewJoinBlocksFollowInput checks the skew join's tiling rule: a
// key's S side is cut only where its R tuples leave the SMs short of
// work. On dual-skew input every key has enough R tuples, so no key is
// tiled and the launch has at most one block per skewed R tuple; on the
// foreign-key workload each skewed key has one R tuple, so keys are
// tiled, but the launch stays within Σ|R_k| + NumSMs blocks.
func TestSkewJoinBlocksFollowInput(t *testing.T) {
	devices := []gpusim.Config{{}, {SharedMemBytes: 8 << 10}, {SharedMemBytes: 1 << 10}}
	for _, theta := range []float64{0.9, 1.0} {
		r, s := workload(t, 1<<16, theta, 31)
		want := oracle.Expected(r, s)
		for _, dev := range devices {
			res := Join(r, s, Config{Device: dev})
			if res.Summary != want {
				t.Fatalf("zipf %.1f, shm %d: got %+v, want %+v", theta, dev.SharedMemBytes, res.Summary, want)
			}
			st := res.Stats
			if st.SkewedTuplesR == 0 || st.SkewBlocks > st.SkewedTuplesR {
				t.Errorf("zipf %.1f, shm %d: %d skew-join blocks for %d skewed R tuples",
					theta, dev.SharedMemBytes, st.SkewBlocks, st.SkewedTuplesR)
			}
		}
	}

	g, err := zipf.New(zipf.Config{Theta: 1.0, Universe: 20000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r, s := g.FKPair(120000)
	dev := gpusim.Config{SharedMemBytes: 8 << 10}
	st := Join(r, s, Config{Device: dev}).Stats
	sms := dev.Defaults().NumSMs
	if st.SkewBlocks <= st.SkewedTuplesR || st.SkewBlocks > st.SkewedTuplesR+sms {
		t.Errorf("FK: %d skew-join blocks, want more than %d skewed R tuples and at most %d",
			st.SkewBlocks, st.SkewedTuplesR, st.SkewedTuplesR+sms)
	}
}

func TestNMJoinSubListFallback(t *testing.T) {
	// With a tiny shared memory and k=1, removing one key per large
	// partition is not enough: the divided normal partitions still exceed
	// capacity and NM-join must fall back to Gbase-style sub-lists while
	// staying correct.
	r, s := workload(t, 60000, 1.0, 23)
	want := oracle.Expected(r, s)
	res := Join(r, s, Config{
		Device: gpusim.Config{SharedMemBytes: 4 << 10},
		TopK:   1,
	})
	if res.Summary != want {
		t.Fatalf("got %+v, want %+v", res.Summary, want)
	}
	if res.Stats.LargePartitions == 0 {
		t.Fatal("expected large partitions with 4KiB shared memory at zipf 1.0")
	}
}

func TestConfigKnobs(t *testing.T) {
	r, s := workload(t, 30000, 0.95, 13)
	want := oracle.Expected(r, s)
	cases := []Config{
		{SampleRate: 0.001},
		{SampleRate: 0.2},
		{TopK: 1},
		{TopK: 8},
		{IncludeTransfer: true},
	}
	for i, cfg := range cases {
		if got := Join(r, s, cfg).Summary; got != want {
			t.Errorf("case %d (%+v): got %+v, want %+v", i, cfg, got, want)
		}
	}
}
