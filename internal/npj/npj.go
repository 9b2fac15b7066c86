// Package npj implements cbase-npj, the no-partition hash join from the
// same code repository as Cbase that the paper also compares against
// (§V-A). It skips partitioning entirely: all threads build one shared
// chained hash table over R (latch-free CAS insertion), then all threads
// probe it with disjoint segments of S.
//
// Under skew it inherits every chained-hashing pathology — the popular
// key's chain spans millions of entries and each probe of that key walks
// the whole chain — plus it gets no cache locality from partitioning, which
// is why the paper reports it as the worst CPU solution at every skew
// level.
package npj

import (
	"context"
	"time"

	"skewjoin/internal/chainedtable"
	"skewjoin/internal/exec"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// Config tunes cbase-npj.
type Config struct {
	// Threads is the number of worker threads.
	Threads int
	// OutBufCap is the per-thread output ring capacity (0 = default).
	OutBufCap int
	// Flush optionally installs a per-worker batch consumer on the output
	// buffers (the volcano model's upper operator).
	Flush func(worker int) outbuf.FlushFunc
	// Ctx optionally cancels the run (nil = never). Cancellation is
	// checked at phase boundaries: a cancelled run stops before the next
	// phase and returns with Result.Canceled set.
	Ctx context.Context
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Threads <= 0 {
		c.Threads = exec.DefaultThreads()
	}
	return c
}

// Stats reports internals of a run.
type Stats struct {
	ProbeVisits uint64 // total chain nodes visited during probes
}

// Result is the outcome of one cbase-npj run.
type Result struct {
	Summary outbuf.Summary
	Phases  []exec.Phase // "build", "probe"
	Stats   Stats
	// Canceled reports that Config.Ctx fired before the run completed;
	// the partial Summary and Stats must be discarded.
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

// Join runs the no-partition join over r and s.
func Join(r, s relation.Relation, cfg Config) Result {
	cfg = cfg.Defaults()
	var res Result
	var timer exec.PhaseTimer
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		res.Canceled = true
		return res
	}

	table := chainedtable.NewConcurrent(r.Tuples)
	timer.Time("build", func() {
		exec.Parallel(cfg.Threads, func(w int) {
			lo, hi := exec.Segment(r.Len(), cfg.Threads, w)
			for i := lo; i < hi; i++ {
				table.Insert(i)
			}
		})
	})

	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		res.Canceled = true
		res.Phases = timer.Phases()
		return res
	}

	// Buffers are created (and consumers installed) before the parallel
	// section: Flush factories need not be safe for concurrent calls.
	bufs := make([]*outbuf.Buffer, cfg.Threads)
	for w := range bufs {
		bufs[w] = outbuf.New(cfg.OutBufCap)
		if cfg.Flush != nil {
			bufs[w].SetFlush(cfg.Flush(w))
		}
	}
	visits := make([]uint64, cfg.Threads)
	timer.Time("probe", func() {
		exec.Parallel(cfg.Threads, func(w int) {
			buf := bufs[w]
			lo, hi := exec.Segment(s.Len(), cfg.Threads, w)
			var v uint64
			var curKey relation.Key
			var curPS relation.Payload
			emit := func(p relation.Payload) { buf.Push(curKey, p, curPS) }
			for _, ts := range s.Tuples[lo:hi] {
				curKey, curPS = ts.Key, ts.Payload
				v += uint64(table.Probe(ts.Key, emit))
			}
			visits[w] = v
			buf.Flush()
		})
	})
	for _, v := range visits {
		res.Stats.ProbeVisits += v
	}
	res.Summary = outbuf.Summarize(bufs)
	res.Phases = timer.Phases()
	return res
}
