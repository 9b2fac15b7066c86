package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"skewjoin"
	"skewjoin/internal/service"
)

// small returns a named workload shrunk so a test run takes milliseconds.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.n = 1 << 12
	return w
}

// TestRunLeavesNothingBehind runs the set-up and the closed loop on every
// exit path — a clean end, a wrong answer, an interrupt — and checks that
// afterwards no listener accepts connections and the goroutine count is
// back to its baseline.
func TestRunLeavesNothingBehind(t *testing.T) {
	cases := []struct {
		name, workload string
		corrupt        bool          // make the oracle disagree with every answer
		cancelAfter    time.Duration // interrupt the loop (0 = run to the end)
		wantErr        string
	}{
		{name: "clean", workload: "skewed"},
		{name: "fleet", workload: "fleet"},
		{name: "streaming", workload: "interactive"},
		{name: "wrong-answer", workload: "skewed", corrupt: true, wantErr: "wrong answer"},
		{name: "interrupted", workload: "fleet", cancelAfter: 30 * time.Millisecond, wantErr: "context canceled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			w := small(t, tc.workload)
			if w.limit > 0 {
				w.limit = 10
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s, err := setUp(ctx, w, 7, 2, 2)
			if err != nil {
				t.Fatal(err, s.close())
			}
			if len(s.setups) != 2 {
				t.Errorf("got %d set-up times, want 2", len(s.setups))
			}
			var addrs []string
			for _, ep := range s.d.endpoints {
				addrs = append(addrs, ep.addr)
			}
			if tc.corrupt {
				s.want.expected.Matches++
			}
			if tc.cancelAfter > 0 {
				time.AfterFunc(tc.cancelAfter, cancel)
			}
			st, loopErr := closedLoop(ctx, w, s, 200*time.Millisecond, 1)
			if err := s.close(); err != nil {
				t.Errorf("close: %v", err)
			}
			switch {
			case tc.wantErr == "" && loopErr != nil:
				t.Errorf("loop: %v", loopErr)
			case tc.wantErr != "" && (loopErr == nil || !strings.Contains(loopErr.Error(), tc.wantErr)):
				t.Errorf("loop error %v, want one containing %q", loopErr, tc.wantErr)
			case tc.wantErr == "" && len(st.rtts) == 0:
				t.Error("the loop completed no request")
			}
			for _, addr := range addrs {
				if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
					c.Close()
					t.Errorf("listener %s still accepts connections", addr)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines after the run, %d before:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestUnstolenShare checks the share of wanted CPU time that wall times
// are scaled by.
func TestUnstolenShare(t *testing.T) {
	at := func(steal, busy uint64) stealMark { return stealMark{steal: steal, busy: busy, ok: true} }
	type window struct{ from, to stealMark }
	for _, tc := range []struct {
		name    string
		windows []window
		want    float64
	}{
		{"quarter stolen", []window{{at(10, 100), at(20, 130)}}, 0.75},
		{"nothing stolen", []window{{at(10, 100), at(10, 150)}}, 1},
		{"no ticks", []window{{at(10, 100), at(10, 100)}}, 1},
		{"counter went back", []window{{at(10, 100), at(5, 150)}}, 1},
		{"no reading", []window{{stealMark{}, at(20, 130)}}, 1},
		{"two windows", []window{{at(0, 0), at(10, 10)}, {at(50, 50), at(50, 80)}}, 0.8},
	} {
		var ticks stealTicks
		for _, w := range tc.windows {
			ticks.add(w.from, w.to)
		}
		if got := ticks.unstolen(); got != tc.want {
			t.Errorf("%s: unstolen = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStealWindows checks that every request gets the unstolen share of
// the window it fell in, not that of the whole loop.
func TestStealWindows(t *testing.T) {
	at := func(steal, busy uint64) stealMark { return stealMark{steal: steal, busy: busy, ok: true} }
	st := &loopStats{rtts: []float64{10, 10}}
	var win stealWindow
	win.ticks.add(at(0, 0), at(0, 30)) // a quiet window
	win.ticks.add(at(0, 40), at(0, 60))
	win.close(st)
	st.rtts = append(st.rtts, 10)
	win.ticks.add(at(5, 60), at(30, 135)) // a burst of steal
	win.close(st)
	if want := []float64{1, 1, 0.75}; fmt.Sprint(st.unstolen) != fmt.Sprint(want) {
		t.Errorf("unstolen shares %v, want %v", st.unstolen, want)
	}
}

// TestPlanIsChecked checks that a coproc answer must report the split,
// fragmented plan its pinned calibration yields.
func TestPlanIsChecked(t *testing.T) {
	w := small(t, "coproc")
	for _, tc := range []struct {
		name string
		sp   *service.SplitInfo
		ok   bool
	}{
		{"fragmented split", &service.SplitInfo{Split: true, Fragmented: true}, true},
		{"whole hot partition", &service.SplitInfo{Split: true}, false},
		{"degenerate", &service.SplitInfo{Degenerate: "gpu"}, false},
		{"no split info", nil, false},
	} {
		if err := w.checkPlan(tc.sp); (err == nil) != tc.ok {
			t.Errorf("%s: checkPlan = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestReplayPlanMustMatch checks the traced run's comparison of a replayed
// split plan with the one the server reported.
func TestReplayPlanMustMatch(t *testing.T) {
	st := &skewjoin.SplitStats{
		Plan: &skewjoin.SplitPlan{
			Split: true, CPUParts: []int{1, 2}, GPUParts: []int{3},
			Fragments: []skewjoin.SplitFragment{{Backend: skewjoin.BackendCPU}, {Backend: skewjoin.BackendGPU}},
		},
		CPUFragments: 1, GPUFragments: 1,
	}
	live := service.SplitInfo{Split: true, CPUParts: 2, GPUParts: 1, Fragmented: true, CPUFragments: 1, GPUFragments: 1}
	if err := samePlan(st, &live); err != nil {
		t.Fatalf("matching plan rejected: %v", err)
	}
	whole, moved := live, live
	whole.Fragmented, whole.CPUFragments, whole.GPUFragments = false, 0, 0
	moved.CPUParts, moved.GPUParts = 1, 2
	for name, sp := range map[string]*service.SplitInfo{"whole": &whole, "moved": &moved, "missing": nil} {
		if err := samePlan(st, sp); err == nil {
			t.Errorf("%s: differing plan accepted", name)
		}
	}
}

// TestOracleRejectsWrongTopK checks the fleet's top-k comparison.
func TestOracleRejectsWrongTopK(t *testing.T) {
	w := small(t, "fleet")
	_, want, err := makeInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	var a answer
	a.Matches, a.Checksum = want.expected.Matches, want.expected.Checksum
	a.TopKeys = append(a.TopKeys, want.top...)
	if err := want.check(w, &a.JoinResponse); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	a.TopKeys[0], a.TopKeys[1] = a.TopKeys[1], a.TopKeys[0]
	if err := want.check(w, &a.JoinResponse); err == nil {
		t.Fatal("reordered top-k accepted")
	}
}

// TestReferenceKernel checks that the host-speed kernel finds every key,
// is timed on its threads, and that its slowdown is the median over the
// nominal time.
func TestReferenceKernel(t *testing.T) {
	ks := newRefKernels()
	var s speedSamples
	for i := 0; i < 3; i++ {
		cpu, err := ks.sample(&s)
		if err != nil {
			t.Fatal(err)
		}
		if cpu <= 0 || float64(cpu) != s[i] {
			t.Fatalf("sample %d: CPU time %v, recorded %v", i, cpu, s[i])
		}
	}
	if got := (speedSamples{}).slowdown(); got != 1 {
		t.Errorf("slowdown without samples = %v, want 1", got)
	}
	n := float64(refNominalCPU)
	if got := (speedSamples{n, 3 * n, 2 * n}).slowdown(); got != 2 {
		t.Errorf("slowdown = %v, want the median, 2", got)
	}
}
