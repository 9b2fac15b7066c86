package gsmj

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
	for _, theta := range []float64{0, 0.5, 1.0} {
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
		t.Errorf("empty R: %d results", res.Summary.Count)
	}
	if res := Join(r, empty, Config{}); res.Summary.Count != 0 {
		t.Errorf("empty S: %d results", res.Summary.Count)
	}
}

func TestTilingInvariance(t *testing.T) {
	r, s := workload(t, 30000, 1.0, 9)
	want := oracle.Expected(r, s)
	for _, tile := range []int{-1, 0, 64, 1 << 20} {
		res := Join(r, s, Config{RunTileTuples: tile})
		if res.Summary != want {
			t.Errorf("tile=%d: got %+v, want %+v", tile, res.Summary, want)
		}
	}
}

func TestTilingEngagesUnderSkewOnly(t *testing.T) {
	r, s := workload(t, 50000, 0, 3)
	res := Join(r, s, Config{})
	if res.Stats.TiledRuns != 0 {
		t.Errorf("uniform data tiled %d runs", res.Stats.TiledRuns)
	}

	r, s = workload(t, 50000, 1.0, 3)
	res = Join(r, s, Config{})
	if res.Stats.TiledRuns == 0 {
		t.Error("zipf 1.0 tiled no runs")
	}
	untiled := Join(r, s, Config{RunTileTuples: -1})
	if untiled.Summary != res.Summary {
		t.Fatal("tiling changed the result")
	}
	if res.Phases.Total() >= untiled.Phases.Total() {
		t.Errorf("tiling should reduce modelled time under skew: %v vs %v",
			res.Phases.Total(), untiled.Phases.Total())
	}
}

func TestSortPhaseSkewIndependent(t *testing.T) {
	r0, s0 := workload(t, 60000, 0, 5)
	r1, s1 := workload(t, 60000, 1.0, 5)
	p0 := Join(r0, s0, Config{}).Phases[0].Duration
	p1 := Join(r1, s1, Config{}).Phases[0].Duration
	if p0 != p1 {
		t.Errorf("sort phase should be exactly skew-independent (modelled): %v vs %v", p0, p1)
	}
}

func TestCompetitiveWithHashJoinsAtHighSkew(t *testing.T) {
	// The GPU sort-vs-hash shape: GSMJ should, like GSH, avoid Gbase's
	// chain-and-bitmap explosion at high skew.
	r, s := workload(t, 60000, 1.0, 11)
	gb := gbase.Join(r, s, gbase.Config{})
	gm := Join(r, s, Config{})
	if gm.Summary != gb.Summary {
		t.Fatal("results diverge")
	}
	if gm.Phases.Total() >= gb.Phases.Total() {
		t.Errorf("at zipf 1.0 GSMJ (%v) should beat Gbase (%v)", gm.Phases.Total(), gb.Phases.Total())
	}
}

func TestStatsAndTrace(t *testing.T) {
	r, s := workload(t, 20000, 0.9, 13)
	res := Join(r, s, Config{Device: gpusim.Config{SharedMemBytes: 8 << 10}})
	if res.Stats.Runs == 0 || res.Stats.MergeTasks == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
	if len(res.Trace) == 0 {
		t.Error("no trace records")
	}
	if len(res.Phases) != 2 || res.Phases[0].Name != "sort" || res.Phases[1].Name != "merge" {
		t.Errorf("phases = %+v", res.Phases)
	}
}
