// Package csh implements CSH, the paper's CPU Skew-conscious Hash join
// (§IV-A). CSH is a parallel partitioned hash join with a skew-detection
// phase in front and a hybrid partition phase, so that skewed tuples are
// handled explicitly and never reach the join phase:
//
//  1. Detect skewed keys through sampling: a small sample (default 1%) of
//     R's keys is counted in a hash table; keys whose sampled frequency
//     reaches a threshold (default 2) are marked skewed and each gets a
//     dedicated skewed partition.
//  2. Partition R: each R tuple is checked in the skew checkup table;
//     skewed tuples are appended to their key's skewed partition, normal
//     tuples go through ordinary radix partitioning.
//  3. Partition S: normal S tuples are radix-partitioned; a skewed S tuple
//     is not copied at all — CSH immediately joins it against the skewed R
//     partition of its key, emitting results with sequential reads and no
//     per-result key comparison (the hybrid-hash-join idea).
//  4. NM-join: the remaining normal partitions are joined exactly like
//     Cbase's join phase.
package csh

import (
	"context"
	"sync"
	"time"

	"skewjoin/internal/exec"
	"skewjoin/internal/freqtable"
	"skewjoin/internal/joinphase"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
)

// Config tunes CSH.
type Config struct {
	// Threads is the number of worker threads (paper: 20).
	Threads int
	// Bits1/Bits2 are the radix bits of the two partition passes for
	// normal tuples, as in Cbase.
	Bits1, Bits2 uint32
	// SampleRate is the fraction of R tuples sampled for skew detection
	// (paper example: 1%).
	SampleRate float64
	// SkewThreshold is the sampled frequency at or above which a key is
	// marked skewed (paper example: 2).
	SkewThreshold uint32
	// SkewFactor is Cbase's task-splitting factor, kept for the NM-join
	// phase.
	SkewFactor float64
	// OutBufCap is the per-thread output ring capacity (0 = default).
	OutBufCap int
	// Flush optionally installs a per-worker batch consumer on the output
	// buffers (the volcano model's upper operator); the final partial
	// batch is delivered before Join returns.
	Flush func(worker int) outbuf.FlushFunc
	// Ctx optionally cancels the run (nil = never). Cancellation is
	// checked at phase boundaries and between NM-join tasks; a cancelled
	// run reports Result.Canceled and its summary must be discarded.
	Ctx context.Context
}

// Defaults fills zero fields with the paper's example parameters.
func (c Config) Defaults() Config {
	if c.Threads <= 0 {
		c.Threads = exec.DefaultThreads()
	}
	if c.Bits1 == 0 && c.Bits2 == 0 {
		c.Bits1, c.Bits2 = 6, 5
	}
	c.Bits1, c.Bits2 = radix.ClampBits(c.Bits1, c.Bits2)
	if c.SampleRate <= 0 {
		c.SampleRate = 0.01
	}
	if c.SkewThreshold == 0 {
		c.SkewThreshold = 2
	}
	if c.SkewFactor == 0 {
		c.SkewFactor = 4
	}
	return c
}

// Stats reports the internals of a CSH run.
type Stats struct {
	SampleSize    int
	SkewedKeys    int    // keys marked skewed by detection
	SkewedTuplesR int    // R tuples diverted into skewed partitions
	SkewedTuplesS int    // S tuples joined on the fly
	SkewOutput    uint64 // results emitted during the partition phase
	Fanout        int
	NM            joinphase.Stats
}

// Result is the outcome of one CSH run.
type Result struct {
	Summary outbuf.Summary
	Phases  []exec.Phase // "sample", "partition", "nmjoin"
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

// SamplePlusPartition returns the combined duration of the sample and
// partition phases — the "CSH sample+part" row of the paper's Table I,
// which includes all skewed-tuple result generation.
func (r Result) SamplePlusPartition() time.Duration {
	var d time.Duration
	for _, p := range r.Phases {
		if p.Name == "sample" || p.Name == "partition" {
			d += p.Duration
		}
	}
	return d
}

// markSkewed probes the checkup table for every tuple of rel, in parallel,
// returning the per-tuple skewed-partition ids (-1 = normal).
func markSkewed(rel relation.Relation, checkup *checkupTable, threads int) []int32 {
	ids := make([]int32, rel.Len())
	exec.Parallel(threads, func(w int) {
		lo, hi := exec.Segment(rel.Len(), threads, w)
		for i := lo; i < hi; i++ {
			ids[i] = checkup.lookup(rel.Tuples[i].Key)
		}
	})
	return ids
}

// Join runs CSH over r and s.
func Join(r, s relation.Relation, cfg Config) Result {
	cfg = cfg.Defaults()
	var res Result
	var timer exec.PhaseTimer
	rcfg := radix.Config{
		Threads: cfg.Threads, Bits1: cfg.Bits1, Bits2: cfg.Bits2, Ctx: cfg.Ctx,
	}
	res.Stats.Fanout = rcfg.Fanout()

	// Phase 1: detect skewed keys through sampling (before partitioning).
	var checkup *checkupTable
	var skewedKeys []relation.Key
	timer.Time("sample", func() {
		stride := int(1 / cfg.SampleRate)
		if stride < 1 {
			stride = 1
		}
		counter := freqtable.New(r.Len()/stride + 1)
		sampled := 0
		for i := 0; i < r.Len(); i += stride {
			counter.Add(r.Tuples[i].Key)
			sampled++
		}
		res.Stats.SampleSize = sampled
		for _, kc := range counter.AtLeast(cfg.SkewThreshold) {
			skewedKeys = append(skewedKeys, kc.Key)
		}
		checkup = newCheckupTable(skewedKeys)
	})
	res.Stats.SkewedKeys = len(skewedKeys)
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

	// Phase 2+3: hybrid partitioning. R's skewed tuples are collected into
	// per-key skewed partitions; S's skewed tuples are joined on the fly.
	var pr, ps *radix.Partitioned
	var skewedR [][]relation.Payload
	var skewedS []uint64
	timer.Time("partition", func() {
		if len(skewedKeys) > 0 {
			// Probe the skew checkup table once per tuple, in parallel, to
			// mark diverted tuples; the partition scans then test one
			// array slot per tuple. S's marking pass is independent of R's
			// partitioning, so the two overlap with the worker pool split
			// between them; S's partitioning itself must wait for the
			// merged skewed R partitions its Handle reads.
			rIDs := markSkewed(r, checkup, cfg.Threads)
			var sIDs []int32
			var wgS sync.WaitGroup
			rc := rcfg
			if cfg.Threads > 1 {
				tR, tS := exec.SplitThreads(cfg.Threads, r.Len(), s.Len())
				rc.Threads = tR
				wgS.Add(1)
				go func() {
					defer wgS.Done()
					sIDs = markSkewed(s, checkup, tS)
				}()
			} else {
				sIDs = markSkewed(s, checkup, 1)
			}

			// Per-worker local collection avoids contention on the skewed
			// partitions; they are merged after the R pass.
			local := make([][][]relation.Payload, cfg.Threads)
			for w := range local {
				local[w] = make([][]relation.Payload, len(skewedKeys))
			}
			pr = radix.Partition(r.Tuples, rc, &radix.Diverter{
				IDs: rIDs,
				Handle: func(w int, t relation.Tuple, id int32) {
					local[w][id] = append(local[w][id], t.Payload)
				},
			})
			skewedR = make([][]relation.Payload, len(skewedKeys))
			for id := range skewedR {
				for w := 0; w < cfg.Threads; w++ {
					skewedR[id] = append(skewedR[id], local[w][id]...)
				}
				res.Stats.SkewedTuplesR += len(skewedR[id])
			}
			wgS.Wait()

			skewedS = make([]uint64, cfg.Threads)
			ps = radix.Partition(s.Tuples, rcfg, &radix.Diverter{
				IDs: sIDs,
				Handle: func(w int, t relation.Tuple, id int32) {
					// Hybrid-hash-join step: produce the join results for a
					// skewed S tuple immediately, scanning the associated
					// skewed R partition sequentially.
					bufs[w].PushRun(t.Key, skewedR[id], t.Payload)
					skewedS[w]++
				},
			})
		} else if cfg.Threads > 1 {
			// No skewed keys detected: the R and S passes are fully
			// independent, exactly as in Cbase — overlap them.
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
	for _, n := range skewedS {
		res.Stats.SkewedTuplesS += int(n)
	}
	res.Stats.SkewOutput = outbuf.Summarize(bufs).Count
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		res.Canceled = true
		res.Phases = timer.Phases()
		return res
	}

	// Phase 4: NM-join over the normal partitions only.
	timer.Time("nmjoin", func() {
		res.Stats.NM = joinphase.Run(pr, ps, joinphase.Config{
			Threads:    cfg.Threads,
			SkewFactor: cfg.SkewFactor,
			Ctx:        cfg.Ctx,
		}, bufs)
	})
	res.Canceled = res.Stats.NM.Canceled

	for _, b := range bufs {
		b.Flush()
	}
	res.Summary = outbuf.Summarize(bufs)
	res.Phases = timer.Phases()
	return res
}
