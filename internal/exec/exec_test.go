package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSegmentCoversExactly(t *testing.T) {
	for _, tc := range []struct{ n, threads int }{
		{0, 1}, {1, 1}, {10, 3}, {7, 7}, {5, 8}, {100, 9}, {1, 16},
	} {
		covered := make([]int, tc.n)
		prevHi := 0
		for w := 0; w < tc.threads; w++ {
			lo, hi := Segment(tc.n, tc.threads, w)
			if lo != prevHi {
				t.Fatalf("n=%d threads=%d worker=%d: lo=%d, want %d", tc.n, tc.threads, w, lo, prevHi)
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
			prevHi = hi
		}
		if prevHi != tc.n {
			t.Fatalf("n=%d threads=%d: segments end at %d", tc.n, tc.threads, prevHi)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d threads=%d: item %d covered %d times", tc.n, tc.threads, i, c)
			}
		}
	}
}

func TestSegmentBalance(t *testing.T) {
	// Segments differ by at most one item.
	n, threads := 1000, 7
	min, max := n, 0
	for w := 0; w < threads; w++ {
		lo, hi := Segment(n, threads, w)
		if hi-lo < min {
			min = hi - lo
		}
		if hi-lo > max {
			max = hi - lo
		}
	}
	if max-min > 1 {
		t.Errorf("segment sizes range %d..%d", min, max)
	}
}

func TestQuickSegment(t *testing.T) {
	f := func(nRaw uint16, thRaw uint8) bool {
		n := int(nRaw)
		threads := int(thRaw%32) + 1
		total := 0
		for w := 0; w < threads; w++ {
			lo, hi := Segment(n, threads, w)
			if lo > hi || lo < 0 || hi > n {
				return false
			}
			total += hi - lo
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParallelRunsAllWorkers(t *testing.T) {
	var ran [8]atomic.Int32
	Parallel(8, func(w int) { ran[w].Add(1) })
	for w := range ran {
		if got := ran[w].Load(); got != 1 {
			t.Errorf("worker %d ran %d times", w, got)
		}
	}
}

func TestParallelSingleThreadInline(t *testing.T) {
	ran := false
	Parallel(1, func(w int) {
		if w != 0 {
			t.Errorf("worker id %d", w)
		}
		ran = true
	})
	if !ran {
		t.Error("worker did not run")
	}
}

func TestQueueDrainProcessesEveryTask(t *testing.T) {
	tasks := make([]int, 1000)
	for i := range tasks {
		tasks[i] = i
	}
	q := NewQueue(tasks)
	var seen [1000]atomic.Int32
	q.Drain(4, func(w, task int) { seen[task].Add(1) })
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("task %d processed %d times", i, got)
		}
	}
}

func TestQueueDrainWithDynamicPushes(t *testing.T) {
	// Tasks pushed while draining (Cbase's split-task pattern) must all be
	// processed before Drain returns.
	q := NewQueue([]int{0})
	var processed atomic.Int32
	const depth = 6
	q.Drain(4, func(w, task int) {
		processed.Add(1)
		if task < depth {
			q.Push(task + 1)
			q.Push(task + 1)
		}
	})
	// Full binary fan-out: 1 + 2 + 4 + ... + 2^depth tasks.
	want := int32(1<<(depth+1) - 1)
	if got := processed.Load(); got != want {
		t.Errorf("processed %d tasks, want %d", got, want)
	}
}

func TestQueueDrainPushRaceStress(t *testing.T) {
	// Hammer the Push-during-Drain race: every task pushed while draining
	// must be processed exactly once, even when pushes land just as other
	// workers conclude the queue is empty.
	for round := 0; round < 50; round++ {
		q := NewQueue([]int{0, 1, 2, 3})
		var processed atomic.Int64
		var pushes atomic.Int64
		q.Drain(8, func(w, task int) {
			processed.Add(1)
			if task < 100 && pushes.Add(1) <= 64 {
				q.Push(1000 + task)
			}
		})
		want := int64(q.Len())
		if got := processed.Load(); got != want {
			t.Fatalf("round %d: processed %d of %d tasks", round, got, want)
		}
	}
}

func TestQueueNextExhausted(t *testing.T) {
	q := NewQueue([]string{"a"})
	if v, ok := q.Next(); !ok || v != "a" {
		t.Fatalf("Next = %q, %v", v, ok)
	}
	if _, ok := q.Next(); ok {
		t.Error("Next on empty queue returned ok")
	}
	q.Push("b")
	if v, ok := q.Next(); !ok || v != "b" {
		t.Errorf("Next after Push = %q, %v", v, ok)
	}
}

func TestQueueLen(t *testing.T) {
	q := NewQueue([]int{1, 2, 3})
	q.Next()
	q.Push(4)
	if got := q.Len(); got != 4 {
		t.Errorf("Len = %d, want 4 (total ever pushed)", got)
	}
}

func TestQueueConcurrentDequeueUnique(t *testing.T) {
	n := 10000
	tasks := make([]int, n)
	for i := range tasks {
		tasks[i] = i
	}
	q := NewQueue(tasks)
	var mu sync.Mutex
	seen := make(map[int]bool, n)
	Parallel(8, func(w int) {
		for {
			v, ok := q.Next()
			if !ok {
				return
			}
			mu.Lock()
			if seen[v] {
				t.Errorf("task %d dequeued twice", v)
			}
			seen[v] = true
			mu.Unlock()
		}
	})
	if len(seen) != n {
		t.Errorf("dequeued %d tasks, want %d", len(seen), n)
	}
}

func TestQueuePushBeforeAndDuringDrain(t *testing.T) {
	// Tasks pushed before Drain starts (after NewQueue) live in the
	// overflow list; they must be drained alongside the snapshot.
	q := NewQueue([]int{0, 1})
	q.Push(2)
	q.Push(3)
	var seen [8]atomic.Int32
	q.Drain(3, func(w, task int) {
		seen[task].Add(1)
		if task == 3 {
			q.Push(4)
		}
	})
	for task := 0; task <= 4; task++ {
		if got := seen[task].Load(); got != 1 {
			t.Errorf("task %d processed %d times, want 1", task, got)
		}
	}
	if got := q.Len(); got != 5 {
		t.Errorf("Len = %d, want 5", got)
	}
}

func TestQueueNextManyCallsPastExhaustion(t *testing.T) {
	// The fetch-add cursor overshoots the snapshot on every failed Next;
	// overshoot must never corrupt later overflow dequeues.
	q := NewQueue([]int{1})
	q.Next()
	for i := 0; i < 100; i++ {
		if _, ok := q.Next(); ok {
			t.Fatal("Next returned ok on empty queue")
		}
	}
	q.Push(2)
	if v, ok := q.Next(); !ok || v != 2 {
		t.Errorf("Next after overshoot = %d, %v; want 2, true", v, ok)
	}
}

func TestQueueNilAndEmptySnapshot(t *testing.T) {
	q := NewQueue[int](nil)
	if _, ok := q.Next(); ok {
		t.Error("Next on nil-snapshot queue returned ok")
	}
	q.Push(7)
	if v, ok := q.Next(); !ok || v != 7 {
		t.Errorf("Next = %d, %v; want 7, true", v, ok)
	}
	q.Drain(2, func(w, task int) { t.Errorf("unexpected task %d", task) })
}

func TestSplitThreads(t *testing.T) {
	for _, tc := range []struct {
		threads, loadA, loadB int
		wantA, wantB          int
	}{
		{2, 1, 1, 1, 1},
		{8, 1, 1, 4, 4},
		{8, 3, 1, 6, 2},
		{8, 1, 0, 7, 1}, // one side empty still gets a worker ceiling
		{8, 0, 1, 1, 7}, // ...and the other at least one
		{8, 0, 0, 4, 4}, // degenerate loads fall back to an even split
		{3, 1000, 1, 2, 1},
	} {
		a, b := SplitThreads(tc.threads, tc.loadA, tc.loadB)
		if a != tc.wantA || b != tc.wantB {
			t.Errorf("SplitThreads(%d, %d, %d) = (%d, %d), want (%d, %d)",
				tc.threads, tc.loadA, tc.loadB, a, b, tc.wantA, tc.wantB)
		}
		if a+b != tc.threads || a < 1 || b < 1 {
			t.Errorf("SplitThreads(%d, %d, %d) = (%d, %d): invalid split",
				tc.threads, tc.loadA, tc.loadB, a, b)
		}
	}
}

func TestDrainCtxCompletesWithoutCancel(t *testing.T) {
	tasks := make([]int, 500)
	for i := range tasks {
		tasks[i] = i
	}
	var processed atomic.Int64
	if err := NewQueue(tasks).DrainCtx(context.Background(), 4, func(w, task int) { processed.Add(1) }); err != nil {
		t.Errorf("DrainCtx = %v", err)
	}
	if got := processed.Load(); got != 500 {
		t.Errorf("processed %d tasks, want 500", got)
	}
}

func TestDrainCtxStopsEarly(t *testing.T) {
	// Cancel after a handful of tasks; the drain must stop without
	// processing the whole queue and report the context error.
	tasks := make([]int, 10000)
	q := NewQueue(tasks)
	ctx, cancel := context.WithCancel(context.Background())
	var processed atomic.Int64
	err := q.DrainCtx(ctx, 4, func(w, task int) {
		if processed.Add(1) == 8 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("DrainCtx = %v, want context.Canceled", err)
	}
	if got := processed.Load(); got == int64(len(tasks)) {
		t.Error("cancelled drain processed every task")
	}
}

func TestDrainCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := NewQueue([]int{1, 2, 3})
	var processed atomic.Int64
	err := q.DrainCtx(ctx, 2, func(w, task int) { processed.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("DrainCtx = %v, want context.Canceled", err)
	}
	if got := processed.Load(); got != 0 {
		t.Errorf("processed %d tasks on a dead context", got)
	}
}

func TestDrainCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	q := NewQueue(make([]int, 1<<20))
	err := q.DrainCtx(ctx, 2, func(w, task int) { time.Sleep(20 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("DrainCtx = %v, want context.DeadlineExceeded", err)
	}
}

func TestParallelCtx(t *testing.T) {
	var ran atomic.Int32
	if err := ParallelCtx(context.Background(), 4, func(ctx context.Context, w int) { ran.Add(1) }); err != nil {
		t.Errorf("ParallelCtx = %v", err)
	}
	if ran.Load() != 4 {
		t.Errorf("ran %d workers, want 4", ran.Load())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ParallelCtx(ctx, 4, func(ctx context.Context, w int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Errorf("ParallelCtx on dead context = %v", err)
	}
	if ran.Load() != 4 {
		t.Error("workers started on a dead context")
	}
}

func TestPhaseTimer(t *testing.T) {
	var pt PhaseTimer
	pt.Time("a", func() { time.Sleep(time.Millisecond) })
	pt.Add("b", 5*time.Millisecond)
	pt.Add("a", 2*time.Millisecond)

	if got := pt.Phases(); len(got) != 3 {
		t.Fatalf("got %d phases", len(got))
	}
	a, ok := pt.Get("a")
	if !ok || a < 3*time.Millisecond {
		t.Errorf("phase a = %v, %v", a, ok)
	}
	if _, ok := pt.Get("missing"); ok {
		t.Error("Get returned ok for missing phase")
	}
	if total := pt.Total(); total < 8*time.Millisecond {
		t.Errorf("total = %v", total)
	}
}

func TestDefaultThreadsPositive(t *testing.T) {
	if DefaultThreads() < 1 {
		t.Errorf("DefaultThreads = %d", DefaultThreads())
	}
}
