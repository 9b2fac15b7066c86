package joinphase

import (
	"fmt"
	"testing"
	"time"

	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

// collectRun executes the join phase with full output collection: every
// worker's ring is drained through a Flush collector, so the returned slice
// holds every emitted result (not just the overwriting ring tail).
func collectRun(t *testing.T, pr, ps *radix.Partitioned, cfg Config) ([]outbuf.Result, outbuf.Summary, Stats) {
	t.Helper()
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	bufs := make([]*outbuf.Buffer, cfg.Threads)
	collected := make([][]outbuf.Result, cfg.Threads)
	for i := range bufs {
		bufs[i] = outbuf.New(0)
		w := i
		bufs[i].SetFlush(func(batch []outbuf.Result) {
			collected[w] = append(collected[w], batch...)
		})
	}
	st := Run(pr, ps, cfg, bufs)
	var all []outbuf.Result
	for i, b := range bufs {
		b.Flush()
		all = append(all, collected[i]...)
	}
	return all, outbuf.Summarize(bufs), st
}

// TestJoinVariantsByteIdentical pins the join phase record for record:
// every shape of run — uniform and skewed input, with and without task
// splitting, and a probe-range fragment of the hot partition as the split
// executor's CPU leg runs it — must produce byte-identical sorted output
// to the oracle's reference join, not merely a matching checksum.
func TestJoinVariantsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name       string
		theta      float64
		skewFactor float64
		fragment   bool // join only the middle half of the hot partition's S side
	}{
		{"uniform", 0, 4, false},
		{"skewed", 1.0, 4, false},
		{"skewed-nosplit", 1.0, -1, false},
		{"ranges", 1.0, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 10000
			g := zipf.MustNew(zipf.Config{Theta: tc.theta, Universe: n, Seed: 42})
			r, s := g.Pair(n)
			rcfg := radix.Config{Threads: 4, Bits1: 5, Bits2: 2}
			pr := radix.Partition(r.Tuples, rcfg, nil)
			ps := radix.Partition(s.Tuples, rcfg, nil)

			cfg := Config{Threads: 4, SkewFactor: tc.skewFactor}
			if tc.fragment {
				hot, size := ps.MaxPartition()
				lo, hi := size/4, 3*size/4
				cfg.Ranges = []ProbeRange{{Part: hot, Lo: lo, Hi: hi}}
				r = relation.Relation{Tuples: pr.Part(hot)}
				s = relation.Relation{Tuples: ps.Part(hot)[lo:hi]}
			}
			want := oracle.ReferenceJoin(r, s)
			got, gotSum, st := collectRun(t, pr, ps, cfg)
			if wantSum := oracle.SummaryOf(want); gotSum != wantSum {
				t.Errorf("summary %+v, reference %+v", gotSum, wantSum)
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, reference %d", len(got), len(want))
			}
			oracle.SortResults(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("result %d = %+v, reference %+v", i, got[i], want[i])
				}
			}
			if st.ProbeVisits < uint64(len(want)) {
				t.Errorf("%d probe visits for %d results", st.ProbeVisits, len(want))
			}
			if tc.skewFactor > 0 && tc.theta > 0 && st.SplitTasks == 0 {
				t.Error("skewed run with splitting enabled split no task")
			}
		})
	}
}

// TestStatsTimingSplit checks the BuildNs/ProbeNs split: both sides are
// populated, bounded by the phase's wall-clock budget across workers, and
// monotone in input size.
func TestStatsTimingSplit(t *testing.T) {
	runSized := func(n int) Stats {
		g := zipf.MustNew(zipf.Config{Theta: 0.8, Universe: n, Seed: 7})
		r, s := g.Pair(n)
		rcfg := radix.Config{Threads: 2, Bits1: 4, Bits2: 2}
		pr := radix.Partition(r.Tuples, rcfg, nil)
		ps := radix.Partition(s.Tuples, rcfg, nil)
		bufs := []*outbuf.Buffer{outbuf.New(0), outbuf.New(0)}
		start := time.Now()
		st := Run(pr, ps, Config{Threads: 2, SkewFactor: 4}, bufs)
		wall := time.Since(start).Nanoseconds()
		if st.BuildNs <= 0 || st.ProbeNs <= 0 {
			t.Fatalf("n=%d: BuildNs=%d ProbeNs=%d, want both positive", n, st.BuildNs, st.ProbeNs)
		}
		// Per-worker CPU time cannot exceed the phase wall clock, so the
		// sums are bounded by threads × wall (with slack for timer grain).
		if budget := 2*wall + int64(time.Millisecond); st.BuildNs+st.ProbeNs > budget {
			t.Errorf("n=%d: BuildNs+ProbeNs = %d exceeds %d (2×wall+grain)", n, st.BuildNs+st.ProbeNs, budget)
		}
		return st
	}
	small := runSized(2000)
	large := runSized(64000)
	if large.BuildNs <= small.BuildNs {
		t.Errorf("BuildNs not monotone in input size: %d (64k tuples) <= %d (2k tuples)", large.BuildNs, small.BuildNs)
	}
	if large.ProbeNs <= small.ProbeNs {
		t.Errorf("ProbeNs not monotone in input size: %d (64k tuples) <= %d (2k tuples)", large.ProbeNs, small.ProbeNs)
	}
}

// TestSplitTablesSurviveArenaReuse pins the Detach contract end to end: at
// high skew with splitting enabled, tables shared by probe sub-tasks must
// keep answering correctly while their origin worker's arena builds over
// later tasks. A miss here corrupts results only under load, which is why
// the record-level test above also covers the split path.
func TestSplitTablesSurviveArenaReuse(t *testing.T) {
	const n = 30000
	g := zipf.MustNew(zipf.Config{Theta: 1.0, Universe: n, Seed: 9})
	r, s := g.Pair(n)
	want := oracle.Expected(r, s)
	// Single thread forces the owner to build later tasks before the
	// sub-tasks it enqueued are drained — the worst case for scratch reuse.
	rcfg := radix.Config{Threads: 1, Bits1: 5, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	bufs := []*outbuf.Buffer{outbuf.New(0)}
	st := Run(pr, ps, Config{Threads: 1, SkewFactor: 2}, bufs)
	if st.SplitTasks == 0 {
		t.Fatal("no splits at zipf 1.0")
	}
	if got := outbuf.Summarize(bufs); got != want {
		t.Errorf("summary %+v, oracle %+v", got, want)
	}
}

// TestSteadyStateAllocsPerTask quantifies the arena payoff inside the real
// phase: a fresh build allocates ≥3 objects per task (table struct +
// starts + entries); with per-worker arenas, amortised allocations per
// task must drop below one (setup + high-water growth only).
func TestSteadyStateAllocsPerTask(t *testing.T) {
	const n = 40000
	g := zipf.MustNew(zipf.Config{Theta: 0.5, Universe: n, Seed: 5})
	r, s := g.Pair(n)
	rcfg := radix.Config{Threads: 1, Bits1: 8, Bits2: 0}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	bufs := []*outbuf.Buffer{outbuf.New(0)}

	var tasks int
	allocs := testing.AllocsPerRun(5, func() {
		st := Run(pr, ps, Config{Threads: 1}, bufs)
		tasks = st.Tasks
	})
	if tasks == 0 {
		t.Fatal("no tasks ran")
	}
	if perTask := allocs / float64(tasks); perTask >= 1 {
		t.Errorf("%.2f allocs/task over %d tasks (total %.0f), want < 1",
			perTask, tasks, allocs)
	}
}

// BenchmarkJoinPhase drives the full phase on a uniform and a skewed
// workload; allocs/op makes the arena's task amortisation visible.
func BenchmarkJoinPhase(b *testing.B) {
	const n = 1 << 16
	for _, theta := range []float64{0, 1.0} {
		g := zipf.MustNew(zipf.Config{Theta: theta, Universe: n, Seed: 3})
		r, s := g.Pair(n)
		rcfg := radix.Config{Threads: 1, Bits1: 6, Bits2: 2}
		pr := radix.Partition(r.Tuples, rcfg, nil)
		ps := radix.Partition(s.Tuples, rcfg, nil)
		bufs := []*outbuf.Buffer{outbuf.New(0)}
		cfg := Config{Threads: 1, SkewFactor: 4}
		b.Run(fmt.Sprintf("zipf=%g", theta), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Run(pr, ps, cfg, bufs)
			}
		})
	}
}
