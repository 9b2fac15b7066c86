package ssj

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

func genPair(t testing.TB, n int, theta float64, seed int64) (relation.Relation, relation.Relation) {
	t.Helper()
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: seed})
	if err != nil {
		t.Fatalf("zipf.New: %v", err)
	}
	r, s := g.Pair(n)
	return r, s
}

// TestJoinMatchesOracle verifies the streaming join's complete output
// digest equals the oracle's across skew levels, thread counts and chunk
// sizes — the exactly-once argument for probe-then-insert under lane
// locks.
func TestJoinMatchesOracle(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.9, 1.1} {
		for _, threads := range []int{1, 2, 4} {
			for _, chunk := range []int{0, 64, 1000} {
				r, s := genPair(t, 20000, theta, 42)
				want := oracle.Expected(r, s)
				res := Join(r, s, Config{Threads: threads, ChunkSize: chunk})
				if res.Canceled {
					t.Fatalf("theta=%v threads=%d chunk=%d: spuriously canceled", theta, threads, chunk)
				}
				if res.Summary != want {
					t.Fatalf("theta=%v threads=%d chunk=%d: summary %+v, want %+v", theta, threads, chunk, res.Summary, want)
				}
				if res.Stats.Staged != want.Count {
					t.Fatalf("theta=%v: staged %d, want %d", theta, res.Stats.Staged, want.Count)
				}
				if want.Count > 0 && res.Stats.FirstResultNs == 0 {
					t.Fatalf("theta=%v: no first-result timestamp despite %d results", theta, want.Count)
				}
				if res.Stats.LimitHit || res.Stats.LimitNs != 0 {
					t.Fatalf("theta=%v: limit milestones set on a no-limit run: %+v", theta, res.Stats)
				}
			}
		}
	}
}

// TestJoinUnevenSides checks the interleaved chunk schedule handles
// inputs of very different sizes (one side's tail runs unpaired).
func TestJoinUnevenSides(t *testing.T) {
	g, err := zipf.New(zipf.Config{Theta: 0.8, Universe: 4096, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := g.NewRelation(10000, 1)
	s := g.NewRelation(300, 2)
	want := oracle.Expected(r, s)
	for _, swap := range []bool{false, true} {
		a, b := r, s
		if swap {
			a, b = s, r
		}
		wantAB := want
		if swap {
			// Key and count symmetric but payload coefficients differ;
			// recompute for the swapped orientation.
			wantAB = oracle.Expected(a, b)
		}
		res := Join(a, b, Config{Threads: 2, ChunkSize: 128})
		if res.Summary != wantAB {
			t.Fatalf("swap=%v: summary %+v, want %+v", swap, res.Summary, wantAB)
		}
	}
}

// TestJoinEmpty pins the empty-input edge: no results, no milestones.
func TestJoinEmpty(t *testing.T) {
	var empty relation.Relation
	r, s := genPair(t, 1000, 0.5, 3)
	for _, tc := range []struct {
		name string
		a, b relation.Relation
	}{{"emptyR", empty, s}, {"emptyS", r, empty}, {"both", empty, empty}} {
		res := Join(tc.a, tc.b, Config{Threads: 2})
		if res.Summary.Count != 0 || res.Summary.Checksum != 0 {
			t.Fatalf("%s: summary %+v, want zero", tc.name, res.Summary)
		}
		if res.Stats.FirstResultNs != 0 {
			t.Fatalf("%s: first-result timestamp on an empty join", tc.name)
		}
	}
}

// TestJoinConsumerSeesEverything attaches a counting consumer and checks
// flushed batches account for every staged result exactly once.
func TestJoinConsumerSeesEverything(t *testing.T) {
	r, s := genPair(t, 10000, 0.9, 11)
	want := oracle.Expected(r, s)
	var mu sync.Mutex
	var seen uint64
	var check uint64
	flush := func(worker int) outbuf.FlushFunc {
		return func(batch []outbuf.Result) {
			mu.Lock()
			for _, res := range batch {
				seen++
				check += outbuf.ChecksumTerm(res.Key, res.PayloadR, res.PayloadS)
			}
			mu.Unlock()
		}
	}
	res := Join(r, s, Config{Threads: 3, ChunkSize: 512, Flush: flush})
	if res.Summary != want {
		t.Fatalf("summary %+v, want %+v", res.Summary, want)
	}
	if seen != want.Count || check != want.Checksum {
		t.Fatalf("consumer saw %d results (checksum %#x), want %d (%#x)", seen, check, want.Count, want.Checksum)
	}
}

// TestJoinLimit checks early termination: the run stops once the limit
// is staged, overshoot is bounded by one chunk per worker, the partial
// digest is internally consistent, and the milestones are recorded.
func TestJoinLimit(t *testing.T) {
	r, s := genPair(t, 30000, 1.0, 42)
	full := oracle.Expected(r, s)
	for _, limit := range []uint64{1, 100, 5000} {
		for _, threads := range []int{1, 4} {
			chunk := 512
			res := Join(r, s, Config{Threads: threads, ChunkSize: chunk, Limit: limit})
			if res.Canceled {
				t.Fatalf("limit=%d: limit-hit run reported Canceled", limit)
			}
			if !res.Stats.LimitHit {
				t.Fatalf("limit=%d (<< output %d): LimitHit not set", limit, full.Count)
			}
			if res.Stats.Staged < limit {
				t.Fatalf("limit=%d: staged only %d", limit, res.Stats.Staged)
			}
			// Overshoot bound: each worker stages at most one more chunk's
			// worth of lane batches after the crossing, and a single hot
			// lane batch can carry up to chunk × max-chain matches. Use
			// the loose but sufficient bound of one full chunk's cross
			// product per worker.
			maxOver := uint64(threads) * uint64(chunk) * uint64(chunk)
			if res.Stats.Staged > limit+maxOver {
				t.Fatalf("limit=%d threads=%d: staged %d, overshoot beyond bound %d", limit, threads, res.Stats.Staged, limit+maxOver)
			}
			if res.Summary.Count != res.Stats.Staged {
				t.Fatalf("limit=%d: summary count %d != staged %d", limit, res.Summary.Count, res.Stats.Staged)
			}
			if res.Stats.LimitNs == 0 || res.Stats.FirstResultNs == 0 {
				t.Fatalf("limit=%d: milestones missing: %+v", limit, res.Stats)
			}
			if res.Stats.LimitNs < res.Stats.FirstResultNs {
				t.Fatalf("limit=%d: limit before first result: %+v", limit, res.Stats)
			}
		}
	}
}

// TestJoinLimitAboveOutput checks a limit larger than the join output
// runs to completion with the full digest and no limit milestone.
func TestJoinLimitAboveOutput(t *testing.T) {
	r, s := genPair(t, 5000, 0.5, 9)
	want := oracle.Expected(r, s)
	res := Join(r, s, Config{Threads: 2, Limit: want.Count * 10})
	if res.Stats.LimitHit || res.Stats.LimitNs != 0 {
		t.Fatalf("limit above output: limit milestones set: %+v", res.Stats)
	}
	if res.Summary != want {
		t.Fatalf("summary %+v, want %+v", res.Summary, want)
	}
}

// TestJoinPreCancelled checks a dead ctx refuses the run outright.
func TestJoinPreCancelled(t *testing.T) {
	r, s := genPair(t, 1000, 0.5, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Join(r, s, Config{Threads: 2, Ctx: ctx})
	if !res.Canceled {
		t.Fatal("pre-cancelled ctx did not set Canceled")
	}
	if res.Summary.Count != 0 {
		t.Fatalf("pre-cancelled run staged %d results", res.Summary.Count)
	}
}

// TestJoinMidStreamCancel cancels during the stream via a consumer hook
// and checks the run reports Canceled (user cancel, not limit).
func TestJoinMidStreamCancel(t *testing.T) {
	r, s := genPair(t, 30000, 0.9, 21)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	flush := func(worker int) outbuf.FlushFunc {
		return func(batch []outbuf.Result) {
			once.Do(cancel)
		}
	}
	res := Join(r, s, Config{Threads: 2, ChunkSize: 256, OutBufCap: 64, Flush: flush, Ctx: ctx})
	if !res.Canceled {
		t.Fatal("mid-stream user cancel did not set Canceled")
	}
	if res.Stats.LimitHit {
		t.Fatal("user cancel misreported as limit hit")
	}
}

// TestStatsSkewSymptom checks MaxChain tracks the hot key under skew.
func TestStatsSkewSymptom(t *testing.T) {
	r, s := genPair(t, 20000, 1.1, 42)
	res := Join(r, s, Config{Threads: 2})
	if res.Stats.MaxChain < 100 {
		t.Fatalf("MaxChain = %d under zipf 1.1, expected a long hot-key chain", res.Stats.MaxChain)
	}
	uR, uS := genPair(t, 20000, 0, 42)
	uni := Join(uR, uS, Config{Threads: 2})
	if uni.Stats.MaxChain >= res.Stats.MaxChain {
		t.Fatalf("uniform MaxChain %d >= skewed %d", uni.Stats.MaxChain, res.Stats.MaxChain)
	}
}

// TestInterleave pins the chunk schedule shape.
func TestInterleave(t *testing.T) {
	tasks := interleave(10, 25, 10)
	// R: [0,10). S: [0,10), [10,20), [20,25) — interleaved R,S,S,S.
	if len(tasks) != 4 {
		t.Fatalf("got %d tasks: %+v", len(tasks), tasks)
	}
	if tasks[0].side != 0 || tasks[1].side != 1 || tasks[2].side != 1 || tasks[3].side != 1 {
		t.Fatalf("bad side order: %+v", tasks)
	}
	if tasks[3].lo != 20 || tasks[3].hi != 25 {
		t.Fatalf("bad S tail: %+v", tasks[3])
	}
	if got := interleave(0, 0, 10); len(got) != 0 {
		t.Fatalf("empty inputs produced tasks: %+v", got)
	}

	// The ramp: each side's chunks start at min(firstChunk, chunk),
	// double, then stay at chunk; together they tile the side exactly
	// once, and the sides alternate while both have tuples left.
	for _, tc := range []struct{ nr, ns, chunk int }{
		{100000, 70000, DefaultChunkSize},
		{5000, 300, 1000},
		{300, 5000, 64},
		{256, 256, DefaultChunkSize},
		{1, 9000, DefaultChunkSize},
	} {
		tasks := interleave(tc.nr, tc.ns, tc.chunk)
		n := [2]int{tc.nr, tc.ns}
		var covered [2]int
		want := [2]int{min(firstChunk, tc.chunk), min(firstChunk, tc.chunk)}
		for i, tk := range tasks {
			sd := tk.side
			if i > 0 && tasks[i-1].side == sd && covered[1-sd] < n[1-sd] {
				t.Fatalf("%+v: task %d repeats side %d while the other has tuples left: %+v", tc, i, sd, tasks)
			}
			if int(tk.lo) != covered[sd] {
				t.Fatalf("%+v: task %d %+v starts at %d, side covered to %d", tc, i, tk, tk.lo, covered[sd])
			}
			size := int(tk.hi - tk.lo)
			if size != want[sd] && (int(tk.hi) != n[sd] || size > want[sd] || size <= 0) {
				t.Fatalf("%+v: task %d %+v has %d tuples, want %d (or a shorter tail)", tc, i, tk, size, want[sd])
			}
			covered[sd] = int(tk.hi)
			want[sd] = min(2*want[sd], tc.chunk)
		}
		if covered != n {
			t.Fatalf("%+v: tasks cover %v, want %v", tc, covered, n)
		}
	}
}

// TestJoinLimitSetupIndependentOfInput checks a limited run pays for the
// prefix it streams, not for the whole input: the heap it allocates must
// not grow with |R|+|S| once the limit is met within the first chunks.
func TestJoinLimitSetupIndependentOfInput(t *testing.T) {
	alloc := func(n int) uint64 {
		r, s := genPair(t, n, 0.9, 42)
		cfg := Config{Threads: 2, Limit: 1000}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Join(r, s, cfg)
		runtime.ReadMemStats(&after)
		if !res.Stats.LimitHit {
			t.Fatalf("n=%d: limit 1000 not hit: %+v", n, res.Stats)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(1<<14), alloc(1<<18)
	if large > 2*small {
		t.Fatalf("limited join allocated %d B at 2^18 tuples per side vs %d B at 2^14 (%.1fx; want <= 2x)",
			large, small, float64(large)/float64(small))
	}
	t.Logf("allocated %d B at 2^14, %d B at 2^18 tuples per side", small, large)
}
