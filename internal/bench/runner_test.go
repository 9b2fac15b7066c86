package bench

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"skewjoin"
	"skewjoin/internal/outbuf"
)

// fakeSweep returns a sweep over one trivial workload whose arms are
// answered by script, called with the arm and its 0-based run count;
// calls records every Measure call's arm in order.
func fakeSweep(names []string, script func(arm string, n int) (Sample, error), calls *[]string) *Sweep {
	want := outbuf.Summary{Count: 1, Checksum: 1}
	runs := map[string]int{}
	return &Sweep{
		Name: "fake", Zipfs: []float64{0.5}, Arms: arms(names...),
		Workload: func(_ int, theta float64, _ int64) (Workload, error) {
			return Workload{Theta: theta, Expected: want}, nil
		},
		Measure: func(_ *Workload, _ Group, a Arm) (Sample, error) {
			*calls = append(*calls, a.Name)
			n := runs[a.Name]
			runs[a.Name]++
			return script(a.Name, n)
		},
	}
}

func ok(clock time.Duration, metrics ...Metric) (Sample, error) {
	return Sample{Clock: clock, Out: &outbuf.Summary{Count: 1, Checksum: 1}, Metrics: metrics}, nil
}

func TestRunnerRotatesArmOrder(t *testing.T) {
	var calls []string
	s := fakeSweep([]string{"a", "b", "c"}, func(string, int) (Sample, error) { return ok(time.Millisecond) }, &calls)
	s.Warm = true
	if _, err := Run(Config{Repeats: 3}, s); err != nil {
		t.Fatal(err)
	}
	// One warm-up per arm, then each round starts one arm later.
	want := "abc abc bca cab"
	if got := strings.Join(calls, ""); got != strings.ReplaceAll(want, " ", "") {
		t.Errorf("call order %s, want %s", got, want)
	}
}

func TestRunnerBestOfRanksOnClock(t *testing.T) {
	var calls []string
	clocks := map[string][]time.Duration{"a": {30, 10, 20}, "m": {7}}
	s := fakeSweep([]string{"a", "m"}, func(arm string, n int) (Sample, error) {
		smp, err := ok(clocks[arm][n], Metric{Name: "run", Value: n}, Metric{Name: "other_ns", Value: 100 - n})
		smp.Modelled = arm == "m"
		return smp, err
	}, &calls)
	a, err := Run(Config{Repeats: 3}, s)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Cells[0]
	if c.BestNS != 10 || !reflect.DeepEqual(c.RunsNS, []int64{30, 10, 20}) {
		t.Errorf("best %d of runs %v, want 10 of [30 10 20]", c.BestNS, c.RunsNS)
	}
	// The best run is chosen by its clock, not by another metric, and
	// its metrics are the ones kept.
	if c.Metrics["run"] != 1 {
		t.Errorf("kept metrics of run %v, want run 1", c.Metrics["run"])
	}
	// A modelled clock is deterministic: its arm runs once.
	if m := a.Cells[1]; len(m.RunsNS) != 1 || !m.Modelled {
		t.Errorf("modelled arm ran %d times (modelled=%v), want once", len(m.RunsNS), m.Modelled)
	}
}

func TestRunnerDropsOracleMismatch(t *testing.T) {
	var calls []string
	s := fakeSweep([]string{"a"}, func(_ string, n int) (Sample, error) {
		switch n {
		case 1:
			return Sample{Clock: 1, Out: &outbuf.Summary{Count: 2, Checksum: 1}}, nil
		case 2:
			return Sample{}, errors.New("boom")
		}
		return ok(5)
	}, &calls)
	a, err := Run(Config{Repeats: 3}, s)
	if err != nil {
		t.Fatal(err)
	}
	if c := a.Cells[0]; c.BestNS != 5 || len(c.RunsNS) != 1 {
		t.Errorf("best %d of runs %v, want only the verified 5ns run", c.BestNS, c.RunsNS)
	}
	if len(a.Errors) != 2 || !strings.Contains(a.Errors[0], "output") || !strings.Contains(a.Errors[1], "boom") {
		t.Errorf("errors = %q, want the mismatch and the failed run", a.Errors)
	}
}

func TestRunnerFixedMetricChange(t *testing.T) {
	var calls []string
	s := fakeSweep([]string{"a"}, func(_ string, n int) (Sample, error) {
		modelled := int64(100)
		if n == 2 {
			modelled = 101
		}
		return ok(time.Duration(10-n), Metric{Name: "modelled_ns", Value: modelled, Fixed: true},
			Metric{Name: "wall_ns", Value: int64(10 - n)})
	}, &calls)
	a, err := Run(Config{Repeats: 3}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Errors) != 1 || !strings.Contains(a.Errors[0], "modelled_ns changed across repeats") {
		t.Errorf("errors = %q, want one fixed-metric change", a.Errors)
	}
}

func TestAASpread(t *testing.T) {
	twin := [2]string{"a", "a2"}
	for _, tc := range []struct {
		a, a2         int64
		ratio, spread float64
		ok            bool
	}{
		{a: 100, a2: 125, ratio: 1.25, spread: 0.25, ok: true},
		{a: 125, a2: 100, ratio: 0.8, spread: 0.25, ok: true},
		{a: 100, a2: 100, ratio: 1, spread: 0, ok: true},
		{a: 100, a2: 0}, // the twin has no verified run
	} {
		group := []Cell{{Arm: "a", BestNS: tc.a}, {Arm: "b", BestNS: 1}, {Arm: "a2", BestNS: tc.a2}}
		aa, ok := aaSpread(group, twin)
		if ok != tc.ok || math.Abs(aa.Ratio-tc.ratio) > 1e-9 || math.Abs(aa.Spread-tc.spread) > 1e-9 {
			t.Errorf("aaSpread(%d, %d) = %+v, %v; want ratio %g spread %g ok %v",
				tc.a, tc.a2, aa, ok, tc.ratio, tc.spread, tc.ok)
		}
	}
	if _, ok := aaSpread([]Cell{{Arm: "a", BestNS: 1}}, [2]string{}); ok {
		t.Error("a sweep without a twin has no A/A spread")
	}
}

// An explicit -zipf list of any length reaches every sweep; only an
// unset list falls back to the sweep's own grid.
func TestExplicitZipfListReachesSweeps(t *testing.T) {
	eleven := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	sweeps := func(cfg Config) []*Sweep {
		return []*Sweep{coprocSweep(cfg, skewjoin.Calibration{}, skewjoin.CoupledDevice(), 1),
			shardSweep(cfg, ""), streamSweep(cfg, 1)}
	}
	defaults := [][]float64{coprocZipfs, shardZipfs, streamZipfs}
	for i, s := range sweeps(Config{Zipfs: eleven}) {
		if !reflect.DeepEqual(s.Zipfs, eleven) {
			t.Errorf("%s sweeps %v, want the explicit 11-point list", s.Name, s.Zipfs)
		}
		if d := sweeps(Config{})[i]; !reflect.DeepEqual(d.Zipfs, defaults[i]) {
			t.Errorf("%s without -zipf sweeps %v, want its default %v", d.Name, d.Zipfs, defaults[i])
		}
	}
	a, err := CoprocBench(Config{Tuples: 256, Threads: 1, Repeats: 1, Zipfs: eleven})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 11*len(a.sweep.Arms) || len(a.AA) != 11 {
		t.Errorf("coproc over 11 zipfs: %d cells, %d A/A groups", len(a.Cells), len(a.AA))
	}
}

// An explicit Config.Repeats reaches the figure sweeps, whose own count
// applies only when the caller set none.
func TestExplicitRepeatsReachFigures(t *testing.T) {
	for _, tc := range []struct{ repeats, want int }{{2, 2}, {0, 1}} {
		a, err := Fig4a(Config{Tuples: 300, Threads: 1, Repeats: tc.repeats, Zipfs: []float64{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Errors) > 0 {
			t.Fatalf("repeats %d: errors %q", tc.repeats, a.Errors)
		}
		if got := a.Config["repeats"]; got != tc.want {
			t.Errorf("repeats %d: config records %v, want %d", tc.repeats, got, tc.want)
		}
		for _, c := range a.Cells {
			if len(c.RunsNS) != tc.want {
				t.Errorf("repeats %d: %s at zipf %g ran %d times, want %d",
					tc.repeats, c.Arm, c.Zipf, len(c.RunsNS), tc.want)
			}
		}
	}
}
