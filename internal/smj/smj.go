// Package smj implements a parallel sort-merge join — an extension beyond
// the paper's evaluated set, included as the classic alternative in the
// sort-vs-hash debate the paper cites (Kim et al. [13], Balkesen et
// al. [17]).
//
// SMJ is an interesting reference point for skew: its sort phase is
// O(n log n)-ish and completely skew-independent (LSD radix sort passes),
// and its merge phase emits the cross product of each equal-key run with
// purely sequential memory accesses — structurally the same access pattern
// as CSH's skew fast path, but for *every* key. The price is paying the
// full sort even when the data is uniform and a hash join would be
// cheaper.
package smj

import (
	"context"
	"sort"

	"skewjoin/internal/exec"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// Config tunes the sort-merge join.
type Config struct {
	// Threads is the number of worker threads.
	Threads int
	// OutBufCap is the per-thread output ring capacity (0 = default).
	OutBufCap int
	// Flush optionally installs a per-worker batch consumer on the output
	// buffers.
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

// Stats reports the internals of a run.
type Stats struct {
	Runs       int // distinct matching key runs merged
	MaxRunPair int // largest cross product emitted for one key
}

// Result is the outcome of one sort-merge join run.
type Result struct {
	Summary outbuf.Summary
	Phases  exec.Phases // "sort", "merge"
	Stats   Stats
	// Canceled reports that Config.Ctx fired before the run completed;
	// the partial Summary and Stats must be discarded.
	Canceled bool
}

// Join runs the sort-merge join over r and s.
func Join(r, s relation.Relation, cfg Config) Result {
	cfg = cfg.Defaults()
	var res Result
	var timer exec.PhaseTimer
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		res.Canceled = true
		return res
	}

	var sr, ss []relation.Tuple
	timer.Time("sort", func() {
		sr = SortByKey(r.Tuples, cfg.Threads)
		ss = SortByKey(s.Tuples, cfg.Threads)
	})
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
	stats := make([]Stats, cfg.Threads)
	timer.Time("merge", func() {
		// Split the key space into one contiguous range per worker: cut
		// points are key boundaries so no equal-key run spans workers.
		cuts := keyCuts(sr, cfg.Threads)
		exec.Parallel(cfg.Threads, func(w int) {
			loKey, hiKey, ok := cuts.rangeOf(w)
			if !ok {
				return
			}
			stats[w] = mergeRange(sr, ss, loKey, hiKey, bufs[w])
			bufs[w].Flush()
		})
	})
	for _, st := range stats {
		res.Stats.Runs += st.Runs
		if st.MaxRunPair > res.Stats.MaxRunPair {
			res.Stats.MaxRunPair = st.MaxRunPair
		}
	}
	res.Summary = outbuf.Summarize(bufs)
	res.Phases = timer.Phases()
	return res
}

// cuts holds the per-worker key ranges: worker w processes keys in
// [bounds[w], bounds[w+1]).
type cuts struct {
	bounds []uint64 // len workers+1; uint64 so the top bound can be 2^32
}

func (c cuts) rangeOf(w int) (lo, hi uint64, ok bool) {
	if w+1 >= len(c.bounds) {
		return 0, 0, false
	}
	lo, hi = c.bounds[w], c.bounds[w+1]
	return lo, hi, lo < hi
}

// keyCuts picks worker boundaries from the sorted R tuples, snapping each
// cut forward to the next key boundary so runs stay whole.
func keyCuts(sr []relation.Tuple, workers int) cuts {
	bounds := make([]uint64, workers+1)
	bounds[workers] = 1 << 32
	for w := 1; w < workers; w++ {
		idx := len(sr) * w / workers
		if idx >= len(sr) {
			bounds[w] = 1 << 32
			continue
		}
		// The range starts at this tuple's key; the previous range ends
		// just before it. Equal keys stay on the right side of the cut.
		bounds[w] = uint64(sr[idx].Key)
	}
	// Bounds must be non-decreasing (duplicate heavy keys can make several
	// cut points land inside one run; empty ranges are fine).
	for w := 1; w <= workers; w++ {
		if bounds[w] < bounds[w-1] {
			bounds[w] = bounds[w-1]
		}
	}
	return cuts{bounds: bounds}
}

// mergeRange merges the sorted runs whose keys fall in [loKey, hiKey).
func mergeRange(sr, ss []relation.Tuple, loKey, hiKey uint64, buf *outbuf.Buffer) Stats {
	var st Stats
	ri := sort.Search(len(sr), func(i int) bool { return uint64(sr[i].Key) >= loKey })
	si := sort.Search(len(ss), func(i int) bool { return uint64(ss[i].Key) >= loKey })
	var rps []relation.Payload // reused run scratch
	for ri < len(sr) && si < len(ss) {
		rk, sk := uint64(sr[ri].Key), uint64(ss[si].Key)
		if rk >= hiKey && sk >= hiKey {
			break
		}
		switch {
		case rk < sk:
			ri++
		case sk < rk:
			si++
		default:
			if rk >= hiKey {
				return st
			}
			key := sr[ri].Key
			rEnd := ri
			for rEnd < len(sr) && sr[rEnd].Key == key {
				rEnd++
			}
			sEnd := si
			for sEnd < len(ss) && ss[sEnd].Key == key {
				sEnd++
			}
			rps = rps[:0]
			for _, t := range sr[ri:rEnd] {
				rps = append(rps, t.Payload)
			}
			for _, t := range ss[si:sEnd] {
				buf.PushRun(key, rps, t.Payload)
			}
			st.Runs++
			if pairs := (rEnd - ri) * (sEnd - si); pairs > st.MaxRunPair {
				st.MaxRunPair = pairs
			}
			ri, si = rEnd, sEnd
		}
	}
	return st
}
