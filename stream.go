package skewjoin

import (
	"context"
	"sync/atomic"
	"time"

	"skewjoin/internal/hashfn"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/ssj"
)

// SSJ is the streaming symmetric hash join — an extension beyond the
// paper's evaluated set (ROADMAP item 1). Both inputs are consumed in
// interleaved chunks; each tuple probes the opposite side's growable
// table and then inserts into its own, so results exist after the first
// chunk instead of after the full build, and Options.Limit can stop the
// run as soon as enough results are staged. The complete (no-limit)
// output digest is identical to the blocking operators'.
const SSJ Algorithm = "ssj"

// StreamStats reports a run's incremental-delivery milestones. It is
// always present on SSJ results; on the blocking CPU algorithms it is
// present when Options.Limit was set (measured at flush granularity, the
// first moment a result batch reaches the consumer).
//
// The two kinds of run start their milestone clocks at different points.
// SSJ starts its clock when streaming starts, after its tables and task
// queue are set up, so its set-up is in neither milestone. The blocking
// operators' limiter starts its clock before the operator does any work,
// so their milestones include partitioning and building. Compare the two
// on the caller's wall clock when set-up matters.
type StreamStats struct {
	// FirstResultNs is the time from the milestone clock's start to the
	// first staged result, in nanoseconds (0 when the join is empty).
	FirstResultNs int64
	// LimitNs is the time from the milestone clock's start until
	// Options.Limit results were staged (0 when no limit was set or it
	// was never reached).
	LimitNs int64
	// LimitHit reports that the run stopped early because Options.Limit
	// was reached; Matches/Checksum then digest a partial prefix of the
	// join, at least Limit results (overshoot is bounded by the chunk
	// and flush granularity).
	LimitHit bool
	// Staged is the number of results staged when the run ended.
	Staged uint64
	// Chunks is the number of streamed input chunks processed (SSJ only).
	Chunks int
}

// streamStats converts the operator's stats into the public mirror.
func streamStats(st ssj.Stats) *StreamStats {
	return &StreamStats{
		FirstResultNs: st.FirstResultNs,
		LimitNs:       st.LimitNs,
		LimitHit:      st.LimitHit,
		Staged:        st.Staged,
		Chunks:        st.Chunks,
	}
}

// limiter layers early termination onto the blocking CPU algorithms: it
// wraps the consumer chain to count flushed results, records the
// first-result and limit milestones, and cancels the run's context once
// Options.Limit results have reached the consumer. The blocking
// operators only observe the cancel at their usual boundaries (between
// join tasks for Cbase/CSH, between phases for CbaseNPJ/SMJ), so the
// overshoot can be large — that blocking-vs-streaming gap is exactly
// what BENCH_stream.json measures. A nil *limiter is a no-op passthrough
// used when no limit is set.
type limiter struct {
	limit   uint64
	staged  atomic.Uint64
	firstNs atomic.Int64
	limitNs atomic.Int64
	start   time.Time
	cancel  context.CancelFunc
}

// newLimiter prepares early termination for a blocking algorithm run:
// it returns the limiter, the context the operator must run under (a
// cancellable child of ctx) and the consumer factory to install. With
// limit == 0 everything passes through unchanged (lim == nil).
func newLimiter(limit uint64, ctx context.Context, consumer func(worker int) ResultConsumer) (lim *limiter, runCtx context.Context, flush func(worker int) ResultConsumer, cancel context.CancelFunc) {
	if limit == 0 {
		return nil, ctx, consumer, func() {}
	}
	parent := ctx
	if parent == nil {
		parent = context.Background()
	}
	runCtx, cancel = context.WithCancel(parent)
	lim = &limiter{limit: limit, start: time.Now(), cancel: cancel}
	flush = func(worker int) ResultConsumer {
		var inner ResultConsumer
		if consumer != nil {
			inner = consumer(worker)
		}
		return func(batch []JoinResult) {
			if inner != nil {
				inner(batch)
			}
			lim.observe(uint64(len(batch)))
		}
	}
	return lim, runCtx, flush, cancel
}

// observe folds one flushed batch into the staged counter and fires the
// milestones; safe from concurrent workers.
func (l *limiter) observe(n uint64) {
	if n == 0 {
		return
	}
	total := l.staged.Add(n)
	if total == n {
		l.firstNs.CompareAndSwap(0, sinceNs(l.start))
	}
	if total >= l.limit {
		if l.limitNs.CompareAndSwap(0, sinceNs(l.start)) {
			l.cancel()
		}
	}
}

// hit reports whether the limit was reached (nil-safe: no limiter, no
// limit). A canceled operator run whose limiter hit is an early
// termination success, not an error.
func (l *limiter) hit() bool {
	return l != nil && l.staged.Load() >= l.limit
}

// annotate attaches the limiter's milestones to a finished result
// (nil-safe no-op without a limit).
func (l *limiter) annotate(res *Result) {
	if l == nil {
		return
	}
	res.Stream = &StreamStats{
		FirstResultNs: l.firstNs.Load(),
		LimitNs:       l.limitNs.Load(),
		LimitHit:      l.hit(),
		Staged:        l.staged.Load(),
	}
}

// sinceNs returns the nanoseconds elapsed since start, at least 1 so a
// recorded milestone is distinguishable from the zero "never happened".
func sinceNs(start time.Time) int64 {
	ns := int64(time.Since(start))
	if ns < 1 {
		ns = 1
	}
	return ns
}

// limitBufCap shrinks the output ring so limit detection is not stalled
// behind a default-sized ring: a blocking operator only reaches its
// consumer (and thus the limiter) on a full ring or at phase end, so a
// limit far below the ring capacity would otherwise be observed only
// when the whole run finishes.
func limitBufCap(cap int, limit uint64) int {
	if limit == 0 {
		return cap
	}
	if cap <= 0 {
		cap = outbuf.DefaultCapacity
	}
	if uint64(cap) > limit {
		cap = hashfn.NextPow2(int(limit))
		if cap < 64 {
			cap = 64
		}
	}
	return cap
}
