// Package exec is the CPU parallel-execution substrate used by the CPU join
// algorithms (Cbase, cbase-npj, CSH). It provides the two scheduling shapes
// the paper describes for Cbase (§II-B):
//
//   - static segment assignment: the input is cut into equal segments, one
//     per thread (used by the first partitioning pass), and
//   - dynamic task queues: partition tasks and join tasks are pushed into a
//     queue and threads repeatedly dequeue until the queue drains (used by
//     the second partitioning pass and the join phase to tolerate load
//     variance).
//
// Threads are goroutines; the thread count is configurable so experiments
// can reproduce the paper's 20-thread setting or scale to the host.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultThreads mirrors the paper's "20 threads" configuration but is
// capped by the host's usable parallelism.
func DefaultThreads() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Parallel runs fn(worker) on `threads` goroutines and waits for all of
// them. worker ranges over [0, threads). Each worker goroutine is pinned
// to its OS thread for the duration of fn so that ThreadCPUNs deltas taken
// inside fn are stable — a migrating goroutine would difference two
// different threads' CPU clocks.
func Parallel(threads int, fn func(worker int)) {
	if threads <= 1 {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// Segment returns the half-open range [lo, hi) of items assigned to the
// given worker when n items are divided into `threads` equal segments.
func Segment(n, threads, worker int) (lo, hi int) {
	per := n / threads
	rem := n % threads
	lo = worker*per + min(worker, rem)
	hi = lo + per
	if worker < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ParallelCtx runs fn(ctx, worker) on `threads` goroutines and waits for
// all of them, returning ctx.Err() if ctx was done by the time the workers
// finished. Cancellation is cooperative: a worker running a long loop
// should poll ctx.Done() at a coarse granularity (e.g. per segment chunk);
// ParallelCtx itself only refuses to start workers when ctx is already
// dead.
func ParallelCtx(ctx context.Context, threads int, fn func(ctx context.Context, worker int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	Parallel(threads, func(w int) { fn(ctx, w) })
	return ctx.Err()
}

// SplitThreads divides `threads` workers between two concurrent tasks in
// proportion to their loads (e.g. tuple counts), guaranteeing each side at
// least one worker. The partition phase uses it to overlap the independent
// R and S partitioning passes instead of running them back-to-back.
func SplitThreads(threads int, loadA, loadB int) (a, b int) {
	if threads < 2 {
		return 1, 1 // caller must run the sides sequentially
	}
	if loadA <= 0 && loadB <= 0 {
		loadA, loadB = 1, 1
	}
	a = int(float64(threads)*float64(loadA)/float64(loadA+loadB) + 0.5)
	if a < 1 {
		a = 1
	}
	if a > threads-1 {
		a = threads - 1
	}
	return a, threads - a
}

// Queue is a dynamic task queue: tasks are appended before the parallel
// phase starts, then workers drain it with Next. Dequeueing from the
// initial task set is a single atomic fetch-add on an immutable snapshot —
// how dynamic load balancing stays cheap even with fine-grained tasks.
// Tasks pushed while draining (Cbase's split-task pattern) land in a small
// mutex-guarded overflow list, so the locked slow path is taken only once
// the snapshot is exhausted and concurrent Push is still possible.
type Queue[T any] struct {
	base []T          // immutable after NewQueue; the fetch-add fast path
	next atomic.Int64 // claim cursor into base; may overshoot len(base)

	mu       sync.Mutex
	over     []T //skewlint:guarded-by mu
	overNext int //skewlint:guarded-by mu
}

// NewQueue returns a queue pre-loaded with the given tasks. The slice is
// retained as the queue's immutable fast-path snapshot and must not be
// modified by the caller afterwards.
func NewQueue[T any](tasks []T) *Queue[T] {
	return &Queue[T]{base: tasks}
}

// Push appends a task. It is safe to call concurrently with Next, which the
// join phase needs when a large task is split into sub-tasks on the fly
// (Cbase's skew handling). Pushed tasks go to the overflow list; they never
// invalidate the lock-free snapshot other workers are draining.
func (q *Queue[T]) Push(t T) {
	q.mu.Lock()
	q.over = append(q.over, t)
	q.mu.Unlock()
}

// Next dequeues one task. ok is false when the queue is drained at the time
// of the call. A worker loop should retry via Drain rather than Next when
// other workers may still Push.
func (q *Queue[T]) Next() (t T, ok bool) {
	// Fast path: claim a slot in the immutable snapshot with one atomic
	// fetch-add. No lock, and no contention beyond the cursor cache line.
	if i := q.next.Add(1) - 1; i < int64(len(q.base)) {
		return q.base[i], true
	}
	// Slow path: the snapshot is exhausted; fall back to the overflow list,
	// which a concurrent Push may still be growing.
	q.mu.Lock()
	if q.overNext < len(q.over) {
		t = q.over[q.overNext]
		q.overNext++
		ok = true
	}
	q.mu.Unlock()
	return t, ok
}

// Len returns the total number of tasks ever pushed.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.base) + len(q.over)
}

// Drain runs fn on every task using `threads` workers until the queue is
// fully drained, including tasks pushed by fn itself while draining.
func (q *Queue[T]) Drain(threads int, fn func(worker int, t T)) {
	if drainQueue(q, nil, threads, fn) != nil {
		panic("exec: drain with no done channel cannot be cancelled")
	}
}

// DrainCtx is Drain with cancellation: workers stop claiming tasks as soon
// as ctx is done, abandoning any tasks still queued. It returns ctx.Err()
// when the drain was cut short, nil when the queue drained fully. A task
// already being executed when ctx fires runs to completion — cancellation
// is between-task, so a cancelled drain never leaves a task half-applied.
func (q *Queue[T]) DrainCtx(ctx context.Context, threads int, fn func(worker int, t T)) error {
	if drainQueue(q, ctx.Done(), threads, fn) != nil {
		return ctx.Err()
	}
	return nil
}

// drainQueue implements Drain/DrainCtx. The in-flight counter makes the
// termination condition exact: the queue is done when it is empty and no
// worker is still executing a task that could push more. done (may be nil
// = never) stops workers between tasks; the return value is non-nil iff
// the drain was cut short.
func drainQueue[T any](q *Queue[T], done <-chan struct{}, threads int, fn func(worker int, t T)) error {
	var inflight atomic.Int64
	var stopped atomic.Bool
	Parallel(threads, func(worker int) {
		idle := 0
		for {
			if done != nil {
				select {
				case <-done:
					stopped.Store(true)
					return
				default:
				}
			}
			t, ok := q.Next()
			if !ok {
				if inflight.Load() != 0 {
					// Someone is still working and may push sub-tasks. Back
					// off instead of hammering the queue: the first rounds
					// yield, then sleeps grow exponentially so a long final
					// task doesn't burn the other workers' cores.
					idle++
					backoff(idle)
					continue
				}
				// Queue empty and nobody in flight. Re-poll once to close
				// the race between a Push and the in-flight decrement; a
				// task surfacing here must be processed, not dropped.
				t, ok = q.Next()
				if !ok {
					return
				}
			}
			idle = 0
			inflight.Add(1)
			fn(worker, t)
			inflight.Add(-1)
		}
	})
	if stopped.Load() {
		return context.Canceled
	}
	return nil
}

// backoff sleeps an idle drain worker: a few yields first (sub-tasks are
// usually pushed within microseconds), then exponentially growing sleeps
// capped at ~64us so wakeup latency stays far below any real task.
func backoff(idle int) {
	const yields = 4
	if idle <= yields {
		runtime.Gosched()
		return
	}
	shift := idle - yields - 1
	if shift > 6 {
		shift = 6
	}
	time.Sleep(time.Microsecond << shift)
}

// PhaseTimer records named phase durations for an algorithm run, which is
// how the experiment harness reproduces the paper's per-phase breakdowns
// (Figure 1, Table I).
type PhaseTimer struct {
	mu     sync.Mutex
	phases []Phase //skewlint:guarded-by mu
}

// Phase is one named timed section of an algorithm.
type Phase struct {
	Name     string
	Duration time.Duration
}

// Phases is an algorithm run's phase list, in record order.
type Phases []Phase

// Total returns the sum of the phase durations: the run's end-to-end
// time.
func (ps Phases) Total() time.Duration {
	var sum time.Duration
	for _, p := range ps {
		sum += p.Duration
	}
	return sum
}

// Time runs fn and records its wall-clock duration under name.
func (pt *PhaseTimer) Time(name string, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	pt.mu.Lock()
	pt.phases = append(pt.phases, Phase{Name: name, Duration: d})
	pt.mu.Unlock()
}

// Add records an externally measured (or modelled) duration under name.
func (pt *PhaseTimer) Add(name string, d time.Duration) {
	pt.mu.Lock()
	pt.phases = append(pt.phases, Phase{Name: name, Duration: d})
	pt.mu.Unlock()
}

// Phases returns the recorded phases in record order.
func (pt *PhaseTimer) Phases() Phases {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	out := make(Phases, len(pt.phases))
	copy(out, pt.phases)
	return out
}

// Get returns the duration recorded under name (summed if recorded more
// than once) and whether it was present.
func (pt *PhaseTimer) Get(name string) (time.Duration, bool) {
	var sum time.Duration
	found := false
	for _, p := range pt.Phases() {
		if p.Name == name {
			sum += p.Duration
			found = true
		}
	}
	return sum, found
}
