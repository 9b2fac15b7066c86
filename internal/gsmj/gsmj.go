// Package gsmj implements a GPU sort-merge join on the gpusim device
// model — an extension beyond the paper's evaluated set that completes the
// sort-vs-hash comparison (internal/smj) on the GPU side.
//
// Sort phase: a four-pass LSD radix sort. Each pass is chunk-parallel —
// blocks histogram their chunk into 256 shared-memory counters, reserve
// output windows with one atomic per bucket, and scatter. Like every LSD
// pass the work depends only on the input size, so the sort phase is
// perfectly skew-independent.
//
// Merge phase: the sorted key space is cut into ranges (whole equal-key
// runs, never split) and one thread block merges each range, streaming
// both sorted inputs with coalesced reads and emitting equal-key cross
// products with coalesced writes. A heavy key makes one run's cross
// product enormous; like GSH's skew-join, oversized runs are tiled into
// (R-tuple, S-tile) blocks so the skewed output parallelises across SMs
// instead of serialising in one block.
package gsmj

import (
	"sort"
	"time"

	"skewjoin/internal/exec"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
	"skewjoin/internal/smj"
)

// Config tunes the GPU sort-merge join.
type Config struct {
	// Device configures the simulated GPU (zero fields = A100).
	Device gpusim.Config
	// RunTileTuples tiles the S side of an equal-key run in the merge
	// phase when the run's cross product exceeds one block's worth of
	// work. 0 = the shared-memory partition capacity; negative disables
	// tiling (one block per range regardless of run size).
	RunTileTuples int
	// Flush optionally installs a per-SM batch consumer on the device's
	// output buffers (the volcano model's upper operator).
	Flush func(sm int) outbuf.FlushFunc
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	c.Device = c.Device.Defaults()
	return c
}

// Stats reports the internals of a run.
type Stats struct {
	Runs       int // equal-key runs merged
	TiledRuns  int // runs split into (R tuple, S tile) blocks
	MergeTasks int // merge-phase thread blocks
	Sim        gpusim.Stats
}

// Result is the outcome of one GPU sort-merge join run. All durations are
// modelled GPU time.
type Result struct {
	Summary outbuf.Summary
	Phases  exec.Phases // "sort", "merge"
	Stats   Stats
	Trace   []gpusim.LaunchRecord
}

// Join runs the GPU sort-merge join over r and s on a fresh device.
func Join(r, s relation.Relation, cfg Config) Result {
	cfg = cfg.Defaults()
	dev := gpusim.NewDevice(cfg.Device)
	if cfg.Flush != nil {
		dev.SetFlush(cfg.Flush)
	}
	var res Result

	// Sort phase: modelled cost of 4 LSD passes per table; functional
	// result from the host-side sorter (identical output ordering).
	sortDur := sortCost(dev, r.Len()) + sortCost(dev, s.Len())
	sr := smj.SortByKey(r.Tuples, 1)
	ss := smj.SortByKey(s.Tuples, 1)

	// Merge phase.
	mergeDur := mergePhase(dev, cfg, sr, ss, &res.Stats)

	dev.FlushOutputs()
	res.Summary = dev.OutputSummary()
	res.Stats.Sim = dev.Stats()
	res.Trace = dev.Records()
	res.Phases = []exec.Phase{
		{Name: "sort", Duration: sortDur},
		{Name: "merge", Duration: mergeDur},
	}
	return res
}

// sortCost charges four chunk-parallel LSD passes over n tuples.
func sortCost(dev *gpusim.Device, n int) time.Duration {
	if n == 0 {
		return 0
	}
	dcfg := dev.Config()
	blocks := 4 * dcfg.NumSMs
	chunk := (n + blocks - 1) / blocks
	if chunk == 0 {
		chunk = 1
		blocks = n
	}
	var total time.Duration
	for pass := 0; pass < 4; pass++ {
		total += dev.Launch("sort", "gsmj-sort-pass", blocks, func(b *gpusim.Block) {
			lo := b.Idx * chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			c := hi - lo
			// Histogram scan: coalesced read, shared-memory counters.
			b.GlobalCoalesced(c * relation.TupleSize)
			b.Shared(c)
			b.UniformWork(c, 2)
			// Window reservation: one atomic per radix bucket.
			b.Atomic(256)
			// Scatter: read again; writes land in 256 per-block windows —
			// coalesced within a window, so charge bandwidth plus one
			// transaction-start per window.
			b.GlobalCoalesced(2 * c * relation.TupleSize)
			b.GlobalRandom(256)
			b.UniformWork(c, 2)
		})
	}
	return total
}

// mergeTask is one merge-phase thread block's assignment.
type mergeTask struct {
	srLo, srHi int // R index range (whole runs)
	ssLo, ssHi int // S index range
	// For a tiled run: one R tuple against one S tile.
	tiled bool
	key   relation.Key
	rp    relation.Payload
	sps   []relation.Payload
}

// mergePhase cuts the sorted key space into ranges and launches one block
// per range, tiling oversized equal-key runs.
func mergePhase(dev *gpusim.Device, cfg Config, sr, ss []relation.Tuple, st *Stats) time.Duration {
	if len(sr) == 0 || len(ss) == 0 {
		return 0
	}
	dcfg := dev.Config()
	capacity := dev.PartitionCapacityTuples()
	tile := cfg.RunTileTuples
	if tile == 0 {
		tile = capacity
	}

	// Cut into ~4*SMs ranges on R run boundaries.
	ranges := 4 * dcfg.NumSMs
	if ranges > len(sr) {
		ranges = len(sr)
	}
	bounds := runBounds(sr, ranges)

	var tasks []mergeTask
	runStats := &runCollector{tile: tile, capacity: capacity}
	for i := 0; i+1 < len(bounds); i++ {
		loKey, hiKey := bounds[i], bounds[i+1]
		if loKey >= hiKey {
			continue
		}
		collectTasks(sr, ss, loKey, hiKey, runStats, &tasks)
	}
	st.Runs = runStats.runs
	st.TiledRuns = runStats.tiled
	st.MergeTasks = len(tasks)
	if len(tasks) == 0 {
		return 0
	}

	return dev.Launch("merge", "gsmj-merge", len(tasks), func(b *gpusim.Block) {
		t := tasks[b.Idx]
		if t.tiled {
			// One R tuple against one S tile: coalesced stream.
			b.GlobalRandom(1)
			b.GlobalCoalesced(len(t.sps) * 4)
			b.UniformWork(len(t.sps), 2)
			b.GlobalCoalesced(len(t.sps) * 12)
			b.Out.PushRunS(t.key, t.rp, t.sps)
			return
		}
		// Range merge: stream both sorted ranges, emit per-run products.
		rRange := sr[t.srLo:t.srHi]
		sRange := ss[t.ssLo:t.ssHi]
		b.GlobalCoalesced((len(rRange) + len(sRange)) * relation.TupleSize)
		b.UniformWork(len(rRange)+len(sRange), 2)
		matches := emitRuns(rRange, sRange, tile, b.Out)
		b.UniformWork(int(matches), 2)
		b.GlobalCoalesced(int(matches) * 12)
	})
}

// runCollector tracks run statistics during task collection.
type runCollector struct {
	tile     int
	capacity int
	runs     int
	tiled    int
}

// collectTasks walks the key range [loKey, hiKey) and appends either one
// range-merge task or, for runs whose cross product exceeds the capacity,
// per-(R tuple, S tile) tasks.
func collectTasks(sr, ss []relation.Tuple, loKey, hiKey uint64, rc *runCollector, tasks *[]mergeTask) {
	ri := sort.Search(len(sr), func(i int) bool { return uint64(sr[i].Key) >= loKey })
	si := sort.Search(len(ss), func(i int) bool { return uint64(ss[i].Key) >= loKey })
	rEndRange := sort.Search(len(sr), func(i int) bool { return uint64(sr[i].Key) >= hiKey })
	sEndRange := sort.Search(len(ss), func(i int) bool { return uint64(ss[i].Key) >= hiKey })

	// Scan for oversized runs; emit tiled tasks for them and group the
	// rest into one range task per contiguous stretch.
	normLoR, normLoS := ri, si
	flushNormal := func(rHi, sHi int) {
		if rHi > normLoR && sHi > normLoS {
			*tasks = append(*tasks, mergeTask{srLo: normLoR, srHi: rHi, ssLo: normLoS, ssHi: sHi})
		}
	}
	for ri < rEndRange {
		key := sr[ri].Key
		rEnd := ri
		for rEnd < rEndRange && sr[rEnd].Key == key {
			rEnd++
		}
		sLo := sort.Search(len(ss), func(i int) bool { return uint64(ss[i].Key) >= uint64(key) })
		sEnd := sLo
		for sEnd < len(ss) && ss[sEnd].Key == key {
			sEnd++
		}
		nR, nS := rEnd-ri, sEnd-sLo
		if nS > 0 {
			rc.runs++
		}
		if rc.tile > 0 && nS > 0 && nR*nS > rc.capacity*4 {
			// Oversized: flush the normal stretch before it, then tile.
			flushNormal(ri, sLo)
			rc.tiled++
			sps := make([]relation.Payload, 0, nS)
			for _, t := range ss[sLo:sEnd] {
				sps = append(sps, t.Payload)
			}
			for _, rt := range sr[ri:rEnd] {
				for lo := 0; lo < len(sps); lo += rc.tile {
					hi := lo + rc.tile
					if hi > len(sps) {
						hi = len(sps)
					}
					*tasks = append(*tasks, mergeTask{
						tiled: true, key: key, rp: rt.Payload, sps: sps[lo:hi],
					})
				}
			}
			normLoR, normLoS = rEnd, sEnd
		}
		ri = rEnd
	}
	flushNormal(rEndRange, sEndRange)
}

// emitRuns merges two sorted ranges, emitting every equal-key cross
// product except the tiled ones (which were already peeled into their own
// tasks — they cannot appear here because tiling removed them from the
// range task's bounds). Returns the number of results emitted.
//
// Run payloads are staged in an append-only arena rather than a reused
// scratch slice: the tape retains each run slice until the launch
// replays it, so earlier runs must never be overwritten.
func emitRuns(rRange, sRange []relation.Tuple, tile int, out *outbuf.Tape) uint64 {
	var matches uint64
	ri, si := 0, 0
	var arena []relation.Payload
	for ri < len(rRange) && si < len(sRange) {
		rk, sk := rRange[ri].Key, sRange[si].Key
		switch {
		case rk < sk:
			ri++
		case sk < rk:
			si++
		default:
			key := rk
			rEnd := ri
			for rEnd < len(rRange) && rRange[rEnd].Key == key {
				rEnd++
			}
			sEnd := si
			for sEnd < len(sRange) && sRange[sEnd].Key == key {
				sEnd++
			}
			start := len(arena)
			for _, t := range rRange[ri:rEnd] {
				arena = append(arena, t.Payload)
			}
			rps := arena[start:len(arena):len(arena)]
			for _, t := range sRange[si:sEnd] {
				out.PushRun(key, rps, t.Payload)
			}
			matches += uint64(len(rps) * (sEnd - si))
			ri, si = rEnd, sEnd
		}
	}
	return matches
}

// runBounds returns `ranges`+1 key bounds cutting sr into contiguous
// stretches on run boundaries (bounds[0] = 0, last = 2^32).
func runBounds(sr []relation.Tuple, ranges int) []uint64 {
	bounds := make([]uint64, ranges+1)
	bounds[ranges] = 1 << 32
	for i := 1; i < ranges; i++ {
		idx := len(sr) * i / ranges
		bounds[i] = uint64(sr[idx].Key)
	}
	for i := 1; i <= ranges; i++ {
		if bounds[i] < bounds[i-1] {
			bounds[i] = bounds[i-1]
		}
	}
	return bounds
}
