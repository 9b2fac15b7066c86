// Package radix implements the parallel multi-pass radix partitioner that
// Cbase (Balkesen et al.'s parallel radix join) and CSH share.
//
// Pass 1 follows the paper's description of Cbase exactly (§II-B): the
// input relation is divided into equal-sized segments, one per thread; each
// thread scans its segment twice — the first scan counts tuples per target
// partition, then, after a prefix sum computes per-thread output offsets in
// one contiguous array, the second scan copies tuples to their partitions
// without any thread contention.
//
// Pass 2 treats every pass-1 partition as a partitioning task in a dynamic
// task queue; threads repeatedly dequeue and sub-partition tasks until the
// queue drains. Two passes keep the per-pass fanout low, which is the radix
// join's TLB-miss optimisation.
//
// CSH reuses this machinery with a Diverter, which holds the skew checkup
// table: pass 1's count scan looks each key up once, and its copy scan
// hands every tuple whose key is in the table to a callback instead of
// partitioning it (appended to a skewed partition for R; joined on the fly
// for S). Without a diverter, pass 1 runs the plain count and copy scans.
package radix

import (
	"context"
	"sync"

	"skewjoin/internal/exec"
	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// Config controls the partitioner.
type Config struct {
	// Threads is the number of worker threads.
	Threads int
	// Bits1 and Bits2 are the radix bits consumed by pass 1 and pass 2.
	// Total fanout is 2^(Bits1+Bits2). Bits2 == 0 selects single-pass
	// partitioning.
	Bits1, Bits2 uint32
	// Ctx optionally cancels partitioning between passes and, during pass
	// 2, between partition tasks (nil = run to completion). A cancelled
	// run returns an empty Partitioned with the configured fanout so the
	// result stays shape-valid; callers observing a done context discard
	// it.
	Ctx context.Context
}

// Fanout returns the total number of final partitions.
func (c Config) Fanout() int { return 1 << (c.Bits1 + c.Bits2) }

// ClampBits bounds the total radix fanout at 2^20 partitions: beyond that
// the per-thread histograms dwarf the data, and a misconfiguration would
// exhaust memory rather than degrade gracefully.
func ClampBits(b1, b2 uint32) (uint32, uint32) {
	const maxTotal = 20
	if b1 > maxTotal {
		b1 = maxTotal
	}
	if b1+b2 > maxTotal {
		b2 = maxTotal - b1
	}
	return b1, b2
}

// Diverter pulls tuples out of the partitioning stream: a tuple whose key
// is in Table is not partitioned, and during pass 1's copy scan Handle is
// invoked once for it with its key's id. Pass 1's count scan looks each
// key up once and keeps the ids for its copy scan, so a diverted pass
// costs the plain pass plus one lookup and one 4-byte id per tuple.
// Handle may be nil when diverted tuples need no action during this pass.
type Diverter struct {
	Table  *CheckupTable
	Handle func(worker int, t relation.Tuple, id int32)
}

// CheckupTable is the paper's "skew checkup table" (§IV-A, Figure 2): an
// open-addressing map from skewed key to the id of its skewed partition,
// probed once per input tuple during the partition phase. Lookups on the
// hot path are a hash, a masked index and (almost always) one comparison.
type CheckupTable struct {
	mask uint32
	keys []relation.Key
	ids  []int32 // -1 = empty slot
}

// NewCheckupTable builds the table from the detected skewed keys, in
// order: the id of keys[i] is i. A repeated key keeps its first id.
func NewCheckupTable(keys []relation.Key) *CheckupTable {
	cap := hashfn.NextPow2(len(keys) * 2)
	if cap < 8 {
		cap = 8
	}
	t := &CheckupTable{
		mask: uint32(cap - 1),
		keys: make([]relation.Key, cap),
		ids:  make([]int32, cap),
	}
	for i := range t.ids {
		t.ids[i] = -1
	}
	for i, k := range keys {
		j := hashfn.Mix32(uint32(k)) & t.mask
		for t.ids[j] >= 0 {
			if t.keys[j] == k {
				break // duplicate key: keep the first id
			}
			j = (j + 1) & t.mask
		}
		if t.ids[j] < 0 {
			t.keys[j] = k
			t.ids[j] = int32(i)
		}
	}
	return t
}

// Lookup returns the skewed-partition id of k, or -1 if k is not skewed.
func (t *CheckupTable) Lookup(k relation.Key) int32 {
	j := hashfn.Mix32(uint32(k)) & t.mask
	for t.ids[j] >= 0 {
		if t.keys[j] == k {
			return t.ids[j]
		}
		j = (j + 1) & t.mask
	}
	return -1
}

// Partitioned is the result of partitioning one relation: tuples grouped by
// partition in one contiguous backing array.
type Partitioned struct {
	Data    []relation.Tuple
	Offsets []int // len Fanout+1; partition p is Data[Offsets[p]:Offsets[p+1]]
	fanout  int
}

// Part returns the tuples of partition p.
func (p *Partitioned) Part(i int) []relation.Tuple {
	return p.Data[p.Offsets[i]:p.Offsets[i+1]]
}

// Fanout returns the number of partitions.
func (p *Partitioned) Fanout() int { return p.fanout }

// Size returns the number of tuples in partition p.
func (p *Partitioned) Size(i int) int { return p.Offsets[i+1] - p.Offsets[i] }

// Total returns the total number of partitioned tuples.
func (p *Partitioned) Total() int { return len(p.Data) }

// MaxPartition returns the index and size of the largest partition.
func (p *Partitioned) MaxPartition() (idx, size int) {
	for i := 0; i < p.fanout; i++ {
		if s := p.Size(i); s > size {
			idx, size = i, s
		}
	}
	return idx, size
}

// partID computes the final partition of a key under cfg: pass-1 bits are
// the low Bits1 bits of the hashed key, pass-2 bits the next Bits2.
//
//skewlint:hotpath
func partID(k relation.Key, cfg Config) uint32 {
	p1 := hashfn.Radix(k, 0, cfg.Bits1)
	p2 := hashfn.Radix(k, cfg.Bits1, cfg.Bits2)
	return p1<<cfg.Bits2 | p2
}

// Partition partitions src into cfg.Fanout() partitions using one or two
// passes, honouring the optional diverter. src is not modified.
func Partition(src []relation.Tuple, cfg Config, div *Diverter) *Partitioned {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if canceled(cfg.Ctx) {
		return emptyPartitioned(cfg.Fanout())
	}
	pass1 := passOne(src, cfg, div)
	if cfg.Bits2 == 0 {
		pass1.fanout = 1 << cfg.Bits1
		checkPlacement(pass1, cfg)
		return pass1
	}
	if canceled(cfg.Ctx) {
		return emptyPartitioned(cfg.Fanout())
	}
	out := passTwo(pass1, cfg)
	checkPlacement(out, cfg)
	return out
}

// PartitionPair partitions r and s with the same radix bits: the
// partition phase every radix join runs before joining partition pairs.
// The two inputs are independent, so with two or more threads they are
// partitioned concurrently, the workers split between them in proportion
// to their sizes (exec.SplitThreads); at one thread they run one after
// the other. Partition contents do not depend on the thread count, so
// both shapes produce the partitions of two sequential Partition calls.
func PartitionPair(r, s []relation.Tuple, cfg Config) (pr, ps *Partitioned) {
	if cfg.Threads <= 1 {
		return Partition(r, cfg, nil), Partition(s, cfg, nil)
	}
	rc, sc := cfg, cfg
	rc.Threads, sc.Threads = exec.SplitThreads(cfg.Threads, len(r), len(s))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pr = Partition(r, rc, nil)
	}()
	ps = Partition(s, sc, nil)
	wg.Wait()
	return pr, ps
}

// checkPlacement runs VerifyPlacement on sanitize builds: every tuple
// must sit inside the partition its key hashes to, or the scatter wrote
// across a region boundary. No cost on normal builds (Enabled is a false
// constant). A cancelled run's empty result passes trivially.
func checkPlacement(p *Partitioned, cfg Config) {
	if !sanitize.Enabled {
		return
	}
	if i := VerifyPlacement(p, cfg); i >= 0 {
		sanitize.Failf("radix: tuple %d (key %d) landed outside partition %d",
			i, p.Data[i].Key, partID(p.Data[i].Key, cfg))
	}
}

// canceled reports whether an optional context is already done.
func canceled(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }

// emptyPartitioned is the shape-valid zero result a cancelled run
// returns: no tuples, but Offsets sized for the fanout so Part/Size
// never index out of range on the discarded value.
func emptyPartitioned(fanout int) *Partitioned {
	return &Partitioned{Offsets: make([]int, fanout+1), fanout: fanout}
}

// passOne performs the segment-parallel count-then-copy pass over src,
// partitioning on the low Bits1 bits.
//
//skewlint:hotpath
func passOne(src []relation.Tuple, cfg Config, div *Diverter) *Partitioned {
	fanout := 1 << cfg.Bits1
	threads := cfg.Threads

	// First scan: per-thread histograms. With a diverter, each key is
	// looked up once here; diverted tuples are skipped, and the ids are
	// kept for the copy scan.
	var ids []int32
	if div != nil {
		ids = make([]int32, len(src))
	}
	hist := make([][]int, threads)
	exec.Parallel(threads, func(w int) {
		h := make([]int, fanout)
		lo, hi := exec.Segment(len(src), threads, w)
		for i := lo; i < hi; i++ {
			k := src[i].Key
			if div != nil {
				id := div.Table.Lookup(k)
				ids[i] = id
				if id >= 0 {
					continue
				}
			}
			h[hashfn.Radix(k, 0, cfg.Bits1)]++
		}
		hist[w] = h
	})

	// Prefix sums: partition-major, thread-minor, so each thread owns a
	// contention-free window inside every partition.
	offsets, cursor := prefixSums(hist, fanout, threads)
	pos := offsets[fanout]

	// Second scan: contention-free scatter; diverted tuples are handled.
	out := make([]relation.Tuple, pos)
	exec.Parallel(threads, func(w int) {
		lo, hi := exec.Segment(len(src), threads, w)
		scatter(out, src, lo, hi, cursor[w], 0, cfg.Bits1, div, ids, w)
	})
	return &Partitioned{Data: out, Offsets: offsets, fanout: fanout}
}

// prefixCells is the (partition x thread) grid size above which the prefix
// sums run partition-parallel; below it the serial scan wins because the
// whole grid fits in cache and forking workers costs more than scanning.
const prefixCells = 1 << 14

// prefixSums turns the per-thread histograms into the partition offset
// array and per-(thread, partition) scatter cursors. Layout is
// partition-major, thread-minor: inside partition p, thread w's window
// starts at cursor[w][p]. Large grids are computed in three phases —
// block-local scans in parallel, a serial prefix over the block totals,
// then a parallel fix-up — so the pass-1 barrier between the count and
// copy scans no longer serialises on fanout x threads additions.
//
//skewlint:hotpath
func prefixSums(hist [][]int, fanout, threads int) (offsets []int, cursor [][]int) {
	offsets = make([]int, fanout+1)
	cursor = make([][]int, threads)
	for w := range cursor {
		cursor[w] = make([]int, fanout)
	}
	if threads == 1 || fanout*threads < prefixCells {
		pos := 0
		for p := 0; p < fanout; p++ {
			offsets[p] = pos
			for w := 0; w < threads; w++ {
				cursor[w][p] = pos
				pos += hist[w][p]
			}
		}
		offsets[fanout] = pos
		return offsets, cursor
	}

	// Phase A: each worker owns a block of partitions and computes
	// block-relative positions plus its block total.
	totals := make([]int, threads)
	exec.Parallel(threads, func(b int) {
		lo, hi := exec.Segment(fanout, threads, b)
		pos := 0
		for p := lo; p < hi; p++ {
			offsets[p] = pos
			for w := 0; w < threads; w++ {
				cursor[w][p] = pos
				pos += hist[w][p]
			}
		}
		totals[b] = pos
	})
	// Phase B: serial prefix over the (few) block totals.
	base := make([]int, threads+1)
	for b := 0; b < threads; b++ {
		base[b+1] = base[b] + totals[b]
	}
	// Phase C: shift every block by its base.
	exec.Parallel(threads, func(b int) {
		add := base[b]
		if add == 0 {
			return
		}
		lo, hi := exec.Segment(fanout, threads, b)
		for p := lo; p < hi; p++ {
			offsets[p] += add
			for w := 0; w < threads; w++ {
				cursor[w][p] += add
			}
		}
	})
	offsets[fanout] = base[threads]
	return offsets, cursor
}

// passTwo sub-partitions each pass-1 partition on the next Bits2 bits.
func passTwo(p1 *Partitioned, cfg Config) *Partitioned {
	return passNext(p1, cfg.Ctx, cfg.Bits1, cfg.Bits2, cfg.Threads)
}

// passNext refines every partition of p on the radix bits
// [shift, shift+bits), multiplying the fanout by 2^bits. Every existing
// partition is a partitioning task in a dynamic queue (the paper: "Cbase
// views each partition as a partition task and adds it into a task queue
// in the second pass"); its output stays inside its contiguous region.
// The queue never grows while draining, so every dequeue takes the
// lock-free fetch-add fast path. A non-nil ctx cancels between tasks; a
// cut-short drain leaves holes in subOffsets, so the pass then returns the
// empty shape instead of reading them.
//
//skewlint:hotpath
func passNext(p1 *Partitioned, ctx context.Context, shift, bits uint32, threads int) *Partitioned {
	fanPrev := p1.fanout
	fanSub := 1 << bits
	fanout := fanPrev * fanSub
	out := make([]relation.Tuple, len(p1.Data))
	offsets := make([]int, fanout+1)

	type task struct{ p int }
	tasks := make([]task, fanPrev)
	for p := range tasks {
		tasks[p] = task{p: p}
	}
	subOffsets := make([][]int, fanPrev)

	work := func(w int, t task) {
		part := p1.Data[p1.Offsets[t.p]:p1.Offsets[t.p+1]]
		base := p1.Offsets[t.p]
		h := make([]int, fanSub+1)
		for _, tp := range part {
			h[hashfn.Radix(tp.Key, shift, bits)+1]++
		}
		for i := 1; i <= fanSub; i++ {
			h[i] += h[i-1]
		}
		offs := make([]int, fanSub+1)
		copy(offs, h)
		cur := make([]int, fanSub)
		for s := range cur {
			cur[s] = base + h[s]
		}
		scatter(out, part, 0, len(part), cur, shift, bits, nil, nil, w)
		subOffsets[t.p] = offs
	}
	if ctx != nil {
		if exec.NewQueue(tasks).DrainCtx(ctx, threads, work) != nil {
			return emptyPartitioned(fanout)
		}
	} else {
		exec.NewQueue(tasks).Drain(threads, work)
	}

	for p := 0; p < fanPrev; p++ {
		base := p1.Offsets[p]
		for s := 0; s < fanSub; s++ {
			offsets[p*fanSub+s] = base + subOffsets[p][s]
		}
	}
	offsets[fanout] = len(out)
	return &Partitioned{Data: out, Offsets: offsets, fanout: fanout}
}

// MultiPass partitions src over any number of passes: pass i consumes
// bits[i] radix bits, with pass 0 segment-parallel over the input and
// every later pass task-parallel over the partitions of the pass before —
// the "two or more passes" generalisation of the radix join (Boncz et
// al.). Final partition indexes order pass-0 bits most-significant, so two
// relations partitioned with the same bits pair up by index. At least one
// pass is required.
func MultiPass(src []relation.Tuple, threads int, bits []uint32) *Partitioned {
	if len(bits) == 0 {
		panic("radix: MultiPass needs at least one pass")
	}
	if threads <= 0 {
		threads = 1
	}
	p := passOne(src, Config{Threads: threads, Bits1: bits[0]}, nil)
	p.fanout = 1 << bits[0]
	shift := bits[0]
	for _, b := range bits[1:] {
		if b == 0 {
			continue
		}
		p = passNext(p, nil, shift, b, threads)
		shift += b
	}
	return p
}

// VerifyPlacement checks that every tuple sits in the partition its key
// maps to and returns the first violating index, or -1. Tests use it as a
// structural invariant.
func VerifyPlacement(p *Partitioned, cfg Config) int {
	for part := 0; part < p.fanout; part++ {
		for i := p.Offsets[part]; i < p.Offsets[part+1]; i++ {
			if int(partID(p.Data[i].Key, cfg)) != part {
				return i
			}
		}
	}
	return -1
}

// PartOf exposes the final partition id of a key under cfg, so join phases
// pair R and S partitions consistently.
func PartOf(k relation.Key, cfg Config) int { return int(partID(k, cfg)) }
