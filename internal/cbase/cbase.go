// Package cbase implements the baseline CPU hash join of the paper: the
// parallel radix join of Balkesen et al. (ICDE 2013), which the paper
// denotes Cbase (§II-B).
//
// Cbase consists of a partition phase and a join phase. The partition phase
// is the two-pass parallel radix partitioner from internal/radix (segment
// assignment plus count-then-copy scans in pass 1, a partition-task queue
// in pass 2). In the join phase every pair of R and S partitions is a join
// task in a dynamic task queue (internal/joinphase).
//
// Skew handling (the two techniques the paper attributes to Cbase):
//
//  1. if a partition is much larger than the average, the join task is
//     broken up into smaller probe sub-tasks, and
//  2. the dynamic task queue tolerates load variance across tasks.
//
// Both techniques fail under heavy skew for the reason the paper gives:
// tuples sharing one join key cannot be split across partitions, so the
// chain for a popular key — and therefore the probe work per S tuple —
// grows without bound, and the O(cntR·cntS) pair enumeration for that key
// dominates the join phase regardless of how the probes are distributed.
package cbase

import (
	"context"
	"sync"
	"time"

	"skewjoin/internal/exec"
	"skewjoin/internal/joinphase"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
)

// Config tunes Cbase.
type Config struct {
	// Threads is the number of worker threads (paper: 20).
	Threads int
	// Bits1/Bits2 are the radix bits of the two partition passes. The
	// defaults give a fanout of 2^11, close to the cache-sized partitions
	// radix joins target at our default table sizes.
	Bits1, Bits2 uint32
	// SkewFactor: a join task whose S partition exceeds SkewFactor times
	// the average partition size is split into probe sub-tasks (the
	// paper's "breaks up the partition into smaller partitions").
	SkewFactor float64
	// OutBufCap is the per-thread output ring capacity (0 = default).
	OutBufCap int
	// Flush optionally installs a per-worker batch consumer on the output
	// buffers (the volcano model's upper operator); the final partial
	// batch is delivered before Join returns.
	Flush func(worker int) outbuf.FlushFunc
	// Ctx optionally cancels the run (nil = never). Cancellation is
	// checked at phase boundaries and between join tasks; a cancelled run
	// reports Result.Canceled and its summary must be discarded.
	Ctx context.Context
}

// Defaults fills zero fields with defaults.
func (c Config) Defaults() Config {
	if c.Threads <= 0 {
		c.Threads = exec.DefaultThreads()
	}
	if c.Bits1 == 0 && c.Bits2 == 0 {
		c.Bits1, c.Bits2 = 6, 5
	}
	c.Bits1, c.Bits2 = radix.ClampBits(c.Bits1, c.Bits2)
	if c.SkewFactor == 0 {
		c.SkewFactor = 4
	}
	return c
}

// Stats reports what happened inside a run, beyond the result summary.
type Stats struct {
	Fanout        int
	MaxPartitionR int // size of the largest R partition
	MaxPartitionS int
	Join          joinphase.Stats
}

// Result is the outcome of one Cbase run.
type Result struct {
	Summary outbuf.Summary
	Phases  []exec.Phase // "partition", "join"
	Stats   Stats
	// Canceled reports that Config.Ctx fired before the run completed; the
	// summary covers only the work done up to that point.
	Canceled bool
}

// Total returns the end-to-end time of the run.
func (r Result) Total() time.Duration {
	var d time.Duration
	for _, p := range r.Phases {
		d += p.Duration
	}
	return d
}

// Join runs Cbase over r and s and returns the verified output summary and
// per-phase breakdown.
func Join(r, s relation.Relation, cfg Config) Result {
	cfg = cfg.Defaults()
	var res Result
	var timer exec.PhaseTimer
	rcfg := radix.Config{
		Threads: cfg.Threads, Bits1: cfg.Bits1, Bits2: cfg.Bits2, Ctx: cfg.Ctx,
	}

	// The R and S partitioning passes are independent, so they run
	// overlapped with the worker pool split between them in proportion to
	// the table sizes (partition contents are thread-count-invariant, so
	// the overlap is output-equivalent to the sequential passes).
	var pr, ps *radix.Partitioned
	timer.Time("partition", func() {
		if cfg.Threads > 1 {
			rc, sc := rcfg, rcfg
			rc.Threads, sc.Threads = exec.SplitThreads(cfg.Threads, r.Len(), s.Len())
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				pr = radix.Partition(r.Tuples, rc, nil)
			}()
			ps = radix.Partition(s.Tuples, sc, nil)
			wg.Wait()
		} else {
			pr = radix.Partition(r.Tuples, rcfg, nil)
			ps = radix.Partition(s.Tuples, rcfg, nil)
		}
	})
	res.Stats.Fanout = rcfg.Fanout()
	_, res.Stats.MaxPartitionR = pr.MaxPartition()
	_, res.Stats.MaxPartitionS = ps.MaxPartition()
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		res.Canceled = true
		res.Phases = timer.Phases()
		return res
	}

	bufs := make([]*outbuf.Buffer, cfg.Threads)
	for w := range bufs {
		bufs[w] = outbuf.New(cfg.OutBufCap)
		if cfg.Flush != nil {
			bufs[w].SetFlush(cfg.Flush(w))
		}
	}
	timer.Time("join", func() {
		res.Stats.Join = joinphase.Run(pr, ps, joinphase.Config{
			Threads:    cfg.Threads,
			SkewFactor: cfg.SkewFactor,
			Ctx:        cfg.Ctx,
		}, bufs)
		for _, b := range bufs {
			b.Flush()
		}
	})
	res.Canceled = res.Stats.Join.Canceled
	res.Summary = outbuf.Summarize(bufs)
	res.Phases = timer.Phases()
	return res
}
