package npj

import (
	"testing"

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
		got := Join(r, s, Config{Threads: 4})
		if got.Summary != want {
			t.Errorf("theta=%.2f: got %+v, want %+v", theta, got.Summary, want)
		}
	}
}

func TestThreadCountInvariance(t *testing.T) {
	r, s := workload(t, 15000, 0.9, 9)
	want := oracle.Expected(r, s)
	for _, threads := range []int{1, 2, 8} {
		if got := Join(r, s, Config{Threads: threads}).Summary; got != want {
			t.Errorf("threads=%d: got %+v, want %+v", threads, got, want)
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	var empty relation.Relation
	r, _ := workload(t, 100, 0.5, 3)
	if res := Join(empty, r, Config{Threads: 2}); res.Summary.Count != 0 {
		t.Errorf("empty R: %d results", res.Summary.Count)
	}
	if res := Join(r, empty, Config{Threads: 2}); res.Summary.Count != 0 {
		t.Errorf("empty S: %d results", res.Summary.Count)
	}
}

func TestPhasesRecorded(t *testing.T) {
	r, s := workload(t, 5000, 0.5, 13)
	res := Join(r, s, Config{Threads: 2})
	if len(res.Phases) != 2 || res.Phases[0].Name != "build" || res.Phases[1].Name != "probe" {
		t.Errorf("phases = %+v", res.Phases)
	}
	if res.Stats.ProbeVisits < res.Summary.Count {
		t.Errorf("probe visits %d < matches %d", res.Stats.ProbeVisits, res.Summary.Count)
	}
}
