// Package ssj implements the streaming symmetric hash join — the repo's
// first non-blocking operator. Every existing join is build-then-probe:
// nothing is emitted until the build side is complete, so a consumer that
// only wants the first N results (a dashboard top-k, a LIMIT query) still
// pays the full makespan. The symmetric join keeps one growable hash
// table per input and pipelines both: tuples arrive in chunks off exec's
// fetch-add queue, and each tuple first probes the opposite side's table
// (emitting every match found so far) and then inserts into its own. A
// result pair is emitted exactly once — by whichever of its two tuples is
// processed later — so the complete run's output digest is identical to
// the blocking operators', while the first results exist after the first
// chunk instead of after the last.
//
// Skew shows up differently here than in the blocking joins: a popular
// key floods both symmetric tables mid-stream, so its chains grow while
// probes are already traversing them, and the per-key output explodes
// early (the hot key's matches are quadratic in how much of each input
// has arrived). That early explosion is precisely what makes the
// operator strong under LIMIT: on skewed data the first chunks alone
// satisfy small limits.
//
// Tuple space is split across `Lanes` independent lane shards, each a
// mutex plus an R-table and an S-table. A worker routes its chunk by the
// low bits of the key hash (the tables bucket by the high bits, so lane
// routing does not collapse their chains), then processes each lane's
// group under that lane's lock. Lane serialization is what makes
// probe-then-insert exactly-once without any global ordering.
//
// Early termination is built in: when Config.Limit results have been
// staged, the run cancels its own drain and returns the partial summary
// as a successful limit-hit result (Stats.LimitHit), distinct from a
// caller cancellation (Result.Canceled). Time-to-first-result and
// time-to-limit are measured on the worker that crosses each threshold.
package ssj

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"skewjoin/internal/chainedtable"
	"skewjoin/internal/exec"
	"skewjoin/internal/hashfn"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// Config tunes the streaming symmetric join.
type Config struct {
	// Threads is the number of worker threads.
	Threads int
	// ChunkSize is the number of tuples per input chunk — the unit of
	// streaming arrival and of cancellation latency (default 4096). Each
	// side's first chunks ramp up to it from 256 tuples. A cancelled run
	// stops within one chunk per worker.
	ChunkSize int
	// Lanes is the number of lane shards (rounded up to a power of two;
	// default 4×Threads, minimum 8). Each lane holds one R-table and one
	// S-table behind one mutex; more lanes mean less lock contention.
	Lanes int
	// Limit stops the run once at least this many results have been
	// staged (0 = run to completion). The crossing is detected at
	// lane-batch granularity, so up to one chunk per worker may be staged
	// beyond the limit.
	Limit uint64
	// OutBufCap is the per-thread output ring capacity (0 = default).
	OutBufCap int
	// Flush optionally installs a per-worker batch consumer on the output
	// buffers (the volcano model's upper operator).
	Flush func(worker int) outbuf.FlushFunc
	// Ctx optionally cancels the run (nil = never). Cancellation is
	// observed between lane batches and between chunks; a cancelled run
	// returns with Result.Canceled set and its partial output must be
	// discarded.
	Ctx context.Context
}

// DefaultChunkSize is the streaming chunk size used when Config.ChunkSize
// is zero. It matches outbuf.DefaultCapacity so one hot chunk cannot wrap
// a default ring more than a handful of times between flushes.
const DefaultChunkSize = 4096

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Threads <= 0 {
		c.Threads = exec.DefaultThreads()
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.Lanes <= 0 {
		c.Lanes = 4 * c.Threads
	}
	if c.Lanes < 8 {
		c.Lanes = 8
	}
	c.Lanes = hashfn.NextPow2(c.Lanes)
	return c
}

// Stats reports internals of a streaming run, including the two
// latency milestones that motivate the operator.
type Stats struct {
	// Chunks is the number of input chunks processed (both sides).
	Chunks int
	// ProbeVisits is the total chain nodes visited during probes.
	ProbeVisits uint64
	// MaxChain is the longest hash chain across both tables of every
	// lane at the end of the run — the skew symptom.
	MaxChain int
	// Staged is the number of results staged into output rings. It can
	// exceed Limit by up to one chunk per worker (bounded overshoot) and
	// equals Summary.Count.
	Staged uint64
	// FirstResultNs is the time from the start of the "stream" phase to
	// the first staged result batch, in nanoseconds (0 when the join is
	// empty). The clock starts once the lane tables, task queue and output
	// buffers are set up: set-up shows on the caller's wall clock, not in
	// either milestone or in the phase.
	FirstResultNs int64
	// LimitNs is the time from the start of the "stream" phase until
	// Staged crossed Config.Limit (0 when no limit was set or it was never
	// reached).
	LimitNs int64
	// LimitHit reports that Config.Limit was reached; the Summary is a
	// valid partial prefix digest, not the full join.
	LimitHit bool
}

// Result is the outcome of one streaming symmetric join run.
type Result struct {
	Summary outbuf.Summary
	Phases  exec.Phases // "stream"
	Stats   Stats
	// Canceled reports that Config.Ctx fired before the run completed or
	// hit its limit; the partial Summary and Stats must be discarded.
	Canceled bool
}

// task is one chunk of one input: side 0 streams R tuples, side 1
// streams S tuples. Chunks of the two sides are interleaved in the queue
// so both tables grow together — the symmetric shape that keeps
// per-chunk probe work balanced.
type task struct {
	side   int32
	lo, hi int32
}

// lane is one shard of the symmetric state: the R and S tables for the
// keys routed to it, serialized by its mutex. Probe-then-insert under
// the lane lock is the exactly-once argument: for any (r, s) match pair,
// whichever tuple the lane processes second finds the other already
// inserted — and only that one emits the pair.
type lane struct {
	mu sync.Mutex
	r  *chainedtable.Incremental //skewlint:guarded-by mu
	s  *chainedtable.Incremental //skewlint:guarded-by mu
}

// worker is one thread's private streaming state.
type worker struct {
	buf     *outbuf.Buffer
	scratch [][]relation.Tuple // per-lane chunk routing groups
	// matches is the probe's match scratch; it keeps what the hottest key
	// so far grew it to.
	matches []relation.Payload
	visits  uint64
	chunks  int
	// staged is buf.Count() as of the last lane batch; the delta feeds
	// the shared progress counter.
	staged uint64
}

// progress is the run-wide output accounting shared by all workers: the
// staged-result counter and the two latency milestones, plus the cancel
// hook fired when the limit is crossed.
type progress struct {
	staged  atomic.Uint64
	firstNs atomic.Int64
	limitNs atomic.Int64
	limit   uint64
	start   time.Time
	cancel  context.CancelFunc
}

// observe folds one worker's newly staged results into the shared
// counter, records the first-result and limit milestones on the worker
// that crosses them, and cancels the drain once the limit is reached.
func (p *progress) observe(delta uint64) {
	if delta == 0 {
		return
	}
	total := p.staged.Add(delta)
	if total == delta {
		// This worker staged the run's first results.
		p.firstNs.CompareAndSwap(0, sinceNs(p.start))
	}
	if p.limit > 0 && total >= p.limit {
		if p.limitNs.CompareAndSwap(0, sinceNs(p.start)) {
			p.cancel()
		}
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

// Join runs the streaming symmetric hash join over r and s.
func Join(r, s relation.Relation, cfg Config) Result {
	cfg = cfg.Defaults()
	var res Result
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		res.Canceled = true
		return res
	}

	lanes := make([]lane, cfg.Lanes)
	laneMask := uint32(cfg.Lanes - 1)
	// A full scan inserts every tuple, so it sizes each lane's tables for
	// an even key spread up front (a skewed lane just doubles a few extra
	// times). A limited run usually stops after a few chunks: its tables
	// start at the minimum size and grow with the prefix it streams, so
	// allocating and clearing the bucket heads — and the MaxChain sweep
	// over them below — costs in proportion to that prefix, not to
	// |R|+|S|. Locked for the lock-discipline invariant even though no
	// worker is running yet.
	capR, capS := r.Len()/cfg.Lanes, s.Len()/cfg.Lanes
	if cfg.Limit > 0 {
		capR, capS = 0, 0
	}
	for i := range lanes {
		ln := &lanes[i]
		ln.mu.Lock()
		ln.r = chainedtable.NewIncremental(capR)
		ln.s = chainedtable.NewIncremental(capS)
		ln.mu.Unlock()
	}

	tasks := interleave(r.Len(), s.Len(), cfg.ChunkSize)
	queue := exec.NewQueue(tasks)

	// Buffers are created (and consumers installed) before the parallel
	// section: Flush factories need not be safe for concurrent calls.
	workers := make([]*worker, cfg.Threads)
	for w := range workers {
		wk := &worker{buf: outbuf.New(cfg.OutBufCap), scratch: make([][]relation.Tuple, cfg.Lanes)}
		if cfg.Flush != nil {
			wk.buf.SetFlush(cfg.Flush(w))
		}
		workers[w] = wk
	}

	parent := cfg.Ctx
	if parent == nil {
		parent = context.Background()
	}
	joinCtx, cancel := context.WithCancel(parent)
	defer cancel()

	prog := &progress{limit: cfg.Limit, cancel: cancel}

	var timer exec.PhaseTimer
	timer.Time("stream", func() {
		prog.start = time.Now()
		// The drain error is the join ctx firing — either the limit hook
		// or the caller's ctx. Both are classified below from prog and
		// cfg.Ctx, so the error value itself carries no extra signal.
		//skewlint:ignore err-drop -- the drain error only says "ctx fired"; whether that was the limit (success) or the caller (Canceled) is decided from prog and cfg.Ctx below
		_ = drainChunks(joinCtx, queue, cfg.Threads, func(w int, t task) {
			wk := workers[w]
			tuples := r.Tuples
			if t.side == 1 {
				tuples = s.Tuples
			}
			wk.stream(joinCtx, lanes, laneMask, t.side, tuples[t.lo:t.hi], prog)
		})
		// Final partial batches: on a completed or limit-hit run these
		// carry the tail results to the consumer. The deltas they stage
		// are already counted (observe reads the buffer's count after
		// each lane group, not on Flush).
		for _, wk := range workers {
			wk.buf.Flush()
		}
	})

	limitHit := cfg.Limit > 0 && prog.staged.Load() >= cfg.Limit
	res.Canceled = cfg.Ctx != nil && cfg.Ctx.Err() != nil && !limitHit

	bufs := make([]*outbuf.Buffer, len(workers))
	for w, wk := range workers {
		bufs[w] = wk.buf
		res.Stats.Chunks += wk.chunks
		res.Stats.ProbeVisits += wk.visits
	}
	for i := range lanes {
		ln := &lanes[i]
		ln.mu.Lock()
		if mc := ln.r.MaxChain(); mc > res.Stats.MaxChain {
			res.Stats.MaxChain = mc
		}
		if mc := ln.s.MaxChain(); mc > res.Stats.MaxChain {
			res.Stats.MaxChain = mc
		}
		ln.mu.Unlock()
	}
	res.Stats.Staged = prog.staged.Load()
	res.Stats.FirstResultNs = prog.firstNs.Load()
	res.Stats.LimitNs = prog.limitNs.Load()
	res.Stats.LimitHit = limitHit
	res.Summary = outbuf.Summarize(bufs)
	res.Phases = timer.Phases()
	return res
}

// firstChunk is the size of each side's first chunk (see interleave).
const firstChunk = 256

// interleave cuts both inputs into tasks and alternates them R, S, R, S,
// … so the two tables fill at matching rates regardless of which side is
// larger (the longer side's tail runs unpaired). Each side's chunks start
// at firstChunk tuples and double up to chunk: the first results and the
// first limit check then come after a few hundred tuples per side rather
// than a full chunk, while a long scan runs at full size after a few
// tasks.
func interleave(nr, ns, chunk int) []task {
	first := min(firstChunk, chunk)
	// Each side's ramp adds at most bits.Len(chunk/first) tasks to its
	// full-size chunks, and its tail one more.
	tasks := make([]task, 0, (nr+ns)/chunk+2*bits.Len(uint(chunk/first))+2)
	var lr, ls int
	cr, cs := first, first
	for lr < nr || ls < ns {
		if lr < nr {
			hi := min(lr+cr, nr)
			tasks = append(tasks, task{side: 0, lo: int32(lr), hi: int32(hi)})
			lr, cr = hi, min(2*cr, chunk)
		}
		if ls < ns {
			hi := min(ls+cs, ns)
			tasks = append(tasks, task{side: 1, lo: int32(ls), hi: int32(hi)})
			ls, cs = hi, min(2*cs, chunk)
		}
	}
	return tasks
}

// stream processes one chunk: route its tuples to lanes, then for each
// non-empty lane — under the lane lock — probe the opposite table and
// insert into the own-side table, tuple by tuple. Cancellation is polled
// between lanes, so a cancelled worker stops within one lane group.
func (wk *worker) stream(ctx context.Context, lanes []lane, laneMask uint32, side int32, chunk []relation.Tuple, prog *progress) {
	wk.chunks++
	// Route by the LOW hash bits: the Incremental tables bucket by the
	// high bits, so lane membership and bucket index stay independent
	// (high-bit routing would funnel each lane's keys into one bucket).
	scratch := wk.scratch
	for i := range scratch {
		scratch[i] = scratch[i][:0]
	}
	for _, tp := range chunk {
		l := hashfn.Mix32(uint32(tp.Key)) & laneMask
		scratch[l] = append(scratch[l], tp)
	}

	// Each probing tuple's matches leave as one run, emitted under the
	// lane lock: a probing R tuple supplies PayloadR to a run of S
	// matches (PushRunS), a probing S tuple PayloadS to a run of R
	// matches (PushRun).
	buf, matches := wk.buf, wk.matches
	defer func() { wk.matches = matches }()

	done := ctx.Done()
	for l := range scratch {
		group := scratch[l]
		if len(group) == 0 {
			continue
		}
		select {
		case <-done:
			return
		default:
		}
		ln := &lanes[l]
		ln.mu.Lock()
		if side == 0 {
			for _, tp := range group {
				m, v := ln.s.Matches(tp.Key, matches)
				matches = m
				wk.visits += uint64(v)
				if len(m) > 0 {
					buf.PushRunS(tp.Key, tp.Payload, m)
				}
				ln.r.Insert(tp)
			}
		} else {
			for _, tp := range group {
				m, v := ln.r.Matches(tp.Key, matches)
				matches = m
				wk.visits += uint64(v)
				if len(m) > 0 {
					buf.PushRun(tp.Key, m, tp.Payload)
				}
				ln.s.Insert(tp)
			}
		}
		ln.mu.Unlock()
		if c := buf.Count(); c != wk.staged {
			prog.observe(c - wk.staged)
			wk.staged = c
		}
	}
}

// drainChunks is the streaming operator's worker fan-out: it drains the
// chunk queue on `threads` workers with between-task cancellation. It
// exists as a named spawn point so skewlint's ctx-propagation analyzer
// covers every caller (see internal/lint.DefaultConfig).
func drainChunks(ctx context.Context, q *exec.Queue[task], threads int, fn func(worker int, t task)) error {
	return q.DrainCtx(ctx, threads, fn)
}
