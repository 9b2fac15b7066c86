// Staged block execution: how every Launch runs its thread blocks.
//
// The simulated makespan of a launch is order-independent — it is a
// function of the per-block cycle vector, which schedule() folds over a
// deterministic earliest-free-SM heap. The functional side is not: blocks
// write into per-SM output rings, and a flush consumer sees the order in
// which results arrive. So each host worker stages what its blocks
// produce — their stats folded into one accumulator, their output on
// tapes — and the launch merges the stages once all blocks have run, the
// output in block-index order. Merge order, not execution order, defines
// the result; any worker count and interleaving therefore produces
// bit-identical records, stats and output.
//
// Workers claim chunks of consecutive block indices from the lock-free
// fetch-add queue of internal/exec (the same dynamic-task-queue substrate
// the CPU joins drain), so a launch whose block costs are wildly skewed —
// the very workloads this repository studies — still balances across host
// cores without any per-block locking. A single worker runs every block
// on the calling goroutine.
package gpusim

import (
	"skewjoin/internal/exec"
	"skewjoin/internal/outbuf"
)

// hostWorkers resolves the number of host workers for a launch: at least
// one for a non-empty launch (a HostParallelism of 0 or less means one),
// and never more than the block count, since extra workers would only
// spin on an empty queue.
func hostWorkers(hostParallelism, blocks int) int {
	switch {
	case blocks == 0:
		return 0
	case hostParallelism <= 1:
		return 1
	case hostParallelism > blocks:
		return blocks
	}
	return hostParallelism
}

// stage is one host worker's staging area. A Device keeps one per worker
// and reuses them, with their tapes' capacity, across launches, so what a
// launch stages is bounded by its output runs, not by its block count.
type stage struct {
	b Block // the worker's block handle; its stats fold every block it runs
	// sums holds one summary-only tape per SM, used when no flush
	// consumer watches the output: count and checksum are all that
	// survive, and both are sums, so folding them per worker is exact.
	sums []outbuf.Tape
	// tape records every run, tagged with its block, when a consumer
	// watches the output and the runs must reach it in block order.
	tape outbuf.Tape
	// inOrder is set when a consumer watches the output and this stage's
	// worker runs the whole launch: its blocks then run in index order,
	// the merge's order, so it replays each block's runs as soon as the
	// block returns, while they are in cache, and its tape holds one
	// block's runs at a time.
	inOrder bool
}

// stagesFor returns n staging areas, reset for a new launch.
func (d *Device) stagesFor(n int) []stage {
	for len(d.stages) < n {
		d.stages = append(d.stages, stage{})
	}
	consumer := d.hasFlush()
	stages := d.stages[:n]
	for i := range stages {
		st := &stages[i]
		st.b = Block{dev: d}
		st.inOrder = consumer && n == 1
		switch {
		case consumer:
			st.sums = nil
			st.b.Out = &st.tape
		case st.sums == nil:
			st.sums = make([]outbuf.Tape, d.cfg.NumSMs)
			for sm := range st.sums {
				st.sums[sm].SummaryOnly()
			}
		}
	}
	return stages
}

// launchChunk is how many consecutive blocks one queue claim hands a
// worker: large enough that the fetch-add cursor is not contended for
// million-block skew-join launches, small enough that a handful of giant
// blocks (a skewed partition's sub-lists) still spread over the pool.
func launchChunk(blocks, workers int) int {
	chunk := blocks / (workers * 32)
	if chunk < 1 {
		return 1
	}
	if chunk > 256 {
		return 256
	}
	return chunk
}

// runBlocks executes the launch's blocks on hostWorkers workers, filling
// cycles[i] with block i's cycles, and merges the staged stats and output
// into the device.
func (d *Device) runBlocks(blocks int, kernel func(b *Block), cycles []float64) {
	workers := hostWorkers(d.cfg.HostParallelism, blocks)
	if workers == 0 {
		return
	}
	stages := d.stagesFor(workers)
	if workers == 1 {
		d.runChunk(&stages[0], kernel, cycles, 0, blocks)
	} else {
		chunk := launchChunk(blocks, workers)
		starts := make([]int, 0, (blocks+chunk-1)/chunk)
		for lo := 0; lo < blocks; lo += chunk {
			starts = append(starts, lo)
		}
		exec.NewQueue(starts).Drain(workers, func(w, lo int) {
			d.runChunk(&stages[w], kernel, cycles, lo, min(lo+chunk, blocks))
		})
	}
	d.merge(stages)
}

// runChunk runs blocks [lo, hi) on one worker's stage.
//
//skewlint:hotpath
func (d *Device) runChunk(st *stage, kernel func(b *Block), cycles []float64, lo, hi int) {
	b := &st.b
	for i := lo; i < hi; i++ {
		b.Idx = i
		if st.sums != nil {
			b.Out = &st.sums[i%len(st.sums)]
		}
		b.Out.Tag(i)
		b.cycles = 0
		kernel(b)
		cycles[i] = b.cycles
		if st.inOrder {
			st.tape.Replay(d.bufs[i%len(d.bufs)])
			st.tape.Reset()
		}
	}
}

// merge folds the stages into the device: stats and summaries by summing,
// which is order-free, and recorded runs in block-index order. A worker
// claims ascending chunks, so its tape holds its blocks' runs in
// ascending block order; replaying, again and again, the lowest pending
// block among the tapes therefore replays every block in index order,
// each into its SM's ring, as if the blocks had run one after another.
func (d *Device) merge(stages []stage) {
	for i := range stages {
		st := &stages[i]
		d.stats.add(st.b.stats)
		for sm := range st.sums {
			st.sums[sm].Replay(d.bufs[sm])
			st.sums[sm].Reset()
		}
	}
	for {
		var next *outbuf.Tape
		blk := 0
		for i := range stages {
			if tag, ok := stages[i].tape.Next(); ok && (next == nil || tag < blk) {
				next, blk = &stages[i].tape, tag
			}
		}
		if next == nil {
			break
		}
		next.ReplayNext(d.bufs[blk%d.cfg.NumSMs])
	}
	for i := range stages {
		stages[i].tape.Reset()
	}
}
