// Package csh implements CSH, the paper's CPU Skew-conscious Hash join
// (§IV-A). CSH is a parallel partitioned hash join with a skew-detection
// phase in front and a hybrid partition phase, so that skewed tuples are
// handled explicitly and never reach the join phase:
//
//  1. Detect skewed keys through sampling: a small sample (default 1%) of
//     R's keys is counted in a hash table; keys whose sampled frequency
//     reaches a threshold (default 2) are marked skewed and each gets a
//     dedicated skewed partition.
//  2. Partition R: each R tuple is checked in the skew checkup table
//     (radix.CheckupTable, looked up once per tuple in the first pass's
//     count scan); skewed tuples are appended to their key's skewed
//     partition, normal tuples go through ordinary radix partitioning.
//  3. Partition S, after R on the same workers: normal S tuples are
//     radix-partitioned; a skewed S tuple is not copied at all — CSH
//     immediately joins it against the skewed R partition of its key,
//     emitting results with sequential reads and no per-result key
//     comparison (the hybrid-hash-join idea).
//  4. NM-join: the remaining normal partitions are joined exactly like
//     Cbase's join phase.
//
// Both inputs take radix.Partition's one path; when detection finds no
// key it runs without a diverter, as Cbase's partition pass does.
package csh

import (
	"context"
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
	Phases  exec.Phases // "sample", "partition", "nmjoin"
	Stats   Stats
	// Canceled reports that Config.Ctx fired before the run completed; the
	// summary covers only the work done up to that point.
	Canceled bool
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
	var checkup *radix.CheckupTable
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
		checkup = radix.NewCheckupTable(skewedKeys)
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
	// S's pass runs after R's, on every worker: its Handle reads R's
	// merged skewed partitions, and the skew output it writes is most of
	// the phase under heavy skew. With no skewed key both passes run
	// without a diverter.
	var pr, ps *radix.Partitioned
	var skewedR [][]relation.Payload
	var skewedS []uint64
	timer.Time("partition", func() {
		divert := func(h func(w int, t relation.Tuple, id int32)) *radix.Diverter {
			if len(skewedKeys) == 0 {
				return nil
			}
			return &radix.Diverter{Table: checkup, Handle: h}
		}

		// Per-worker local collection avoids contention on the skewed
		// partitions; they are merged in worker order after the R pass, so
		// each key's skewed run keeps input order.
		local := make([][][]relation.Payload, cfg.Threads)
		for w := range local {
			local[w] = make([][]relation.Payload, len(skewedKeys))
		}
		pr = radix.Partition(r.Tuples, rcfg, divert(func(w int, t relation.Tuple, id int32) {
			local[w][id] = append(local[w][id], t.Payload)
		}))
		skewedR = make([][]relation.Payload, len(skewedKeys))
		for id := range skewedR {
			for w := 0; w < cfg.Threads; w++ {
				skewedR[id] = append(skewedR[id], local[w][id]...)
			}
			res.Stats.SkewedTuplesR += len(skewedR[id])
		}

		skewedS = make([]uint64, cfg.Threads)
		ps = radix.Partition(s.Tuples, rcfg, divert(func(w int, t relation.Tuple, id int32) {
			// Hybrid-hash-join step: produce the join results for a skewed
			// S tuple immediately, scanning the associated skewed R
			// partition sequentially.
			bufs[w].PushRun(t.Key, skewedR[id], t.Payload)
			skewedS[w]++
		}))
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
