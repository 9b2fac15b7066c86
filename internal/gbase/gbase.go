// Package gbase implements the baseline GPU hash join of the paper: the
// hardware-conscious GPU radix join of Sioulas et al. (ICDE 2019), which
// the paper denotes Gbase (§II-B), running on the gpusim device model.
//
// Partition phase: the input tables are divided into shared-memory-sized
// partitions over two passes. Threads scan and copy tuples into the buckets
// of target partitions; full buckets are chained into linked lists. To keep
// global-memory writes coalesced, tuples are read in register batches and
// reordered through shared memory before being written out. Work is
// chunk-parallel over the input, so partitioning cost is skew-independent.
//
// Join phase: each (R partition, S partition) pair is handled by one thread
// block, which builds a chained hash table over the R partition in shared
// memory and probes it with the S partition. Output is coordinated with a
// write bitmap: for every step down a hash chain, each thread atomically
// sets its intention bit, the block synchronises, and threads compute their
// output offsets — so the synchronisation cost scales with chain length
// (§III).
//
// Skew handling: a long R partition (one that exceeds the shared-memory
// budget) is decomposed into disjoint sub-lists, and one thread block joins
// each sub-list against the *full* S partition. This re-probes every S
// tuple once per sub-list and does nothing about S-side skew — the two
// weaknesses the paper demonstrates.
//
// The bucket lists are modelled, not materialised: the partition kernels
// charge their bucket allocations, and the tuples come from the shared
// radix partitioner (gpupart.Functional), which keeps each partition's
// tuples in input order — the tuples, in the order, of Gbase's bucket
// list, which fills each bucket before linking the next. A sub-list of
// whole buckets is then a tuple range of the partition.
package gbase

import (
	"time"

	"skewjoin/internal/exec"
	"skewjoin/internal/gpupart"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
)

const (
	// bucketTuples is the linked-bucket granularity of the partition
	// phase: one bucket-allocation atomic per bucketTuples tuples.
	bucketTuples = 512
	// batchTuples is the register-batch size for the shared-memory
	// reorder (paper example: 4).
	batchTuples = 4
)

// Config tunes Gbase.
type Config struct {
	// Device configures the simulated GPU (zero fields = A100).
	Device gpusim.Config
	// SubListTuples is the sub-list granularity used to decompose a
	// skewed R partition (Gbase's native skew knob). 0 means the
	// shared-memory capacity; values above it are clamped, since a
	// sub-list's hash table must fit in shared memory.
	SubListTuples int
	// IncludeTransfer adds a "transfer" phase modelling the PCIe copy of
	// both input tables to the device. The paper studies GPU-resident data
	// (§II-B) because this transfer can rival the join itself; enabling it
	// here quantifies that argument.
	IncludeTransfer bool
	// Flush optionally installs a per-SM batch consumer on the device's
	// output buffers (the volcano model's upper operator).
	Flush func(sm int) outbuf.FlushFunc
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	c.Device = c.Device.Defaults()
	return c
}

// Stats reports the internals of a Gbase run.
type Stats struct {
	Bits1, Bits2  uint32
	Fanout        int
	MaxPartitionR int
	MaxPartitionS int
	JoinBlocks    int    // thread blocks in the join phase (incl. sub-lists)
	SubListBlocks int    // blocks beyond one-per-pair, i.e. skew decomposition
	SReprobes     uint64 // extra S-tuple probes caused by sub-lists
	Sim           gpusim.Stats
}

// Result is the outcome of one Gbase run. All durations are modelled GPU
// time from the simulator.
type Result struct {
	Summary outbuf.Summary
	Phases  exec.Phases // "partition", "join"
	Stats   Stats
	// Trace lists every kernel launch with its block count, makespan and
	// imbalance — the simulator's per-launch records.
	Trace []gpusim.LaunchRecord
}

// Join runs Gbase over r and s on a fresh simulated device.
func Join(r, s relation.Relation, cfg Config) Result {
	cfg = cfg.Defaults()
	dev := gpusim.NewDevice(cfg.Device)
	if cfg.Flush != nil {
		dev.SetFlush(cfg.Flush)
	}
	capacity := dev.PartitionCapacityTuples()
	n := r.Len()
	if s.Len() > n {
		n = s.Len()
	}
	bits1, bits2 := gpupart.Fanout(n, capacity)

	var res Result
	res.Stats.Bits1, res.Stats.Bits2 = bits1, bits2
	res.Stats.Fanout = 1 << (bits1 + bits2)

	var transferDur time.Duration
	if cfg.IncludeTransfer {
		transferDur = dev.Transfer("transfer", "gbase-h2d", r.Bytes()+s.Bytes())
	}

	// Partition phase (modelled cost + the partitioned tables).
	dur := partitionTable(dev, r.Tuples, 1<<bits1)
	pr := gpupart.Functional(r.Tuples, bits1, bits2)
	durS := partitionTable(dev, s.Tuples, 1<<bits1)
	ps := gpupart.Functional(s.Tuples, bits1, bits2)
	_, res.Stats.MaxPartitionR = pr.MaxPartition()
	_, res.Stats.MaxPartitionS = ps.MaxPartition()

	// Join phase.
	joinDur := joinPhase(dev, cfg, pr, ps, capacity, &res.Stats)

	dev.FlushOutputs()
	res.Summary = dev.OutputSummary()
	res.Stats.Sim = dev.Stats()
	res.Trace = dev.Records()
	if cfg.IncludeTransfer {
		res.Phases = append(res.Phases, exec.Phase{Name: "transfer", Duration: transferDur})
	}
	res.Phases = append(res.Phases,
		exec.Phase{Name: "partition", Duration: dur + durS},
		exec.Phase{Name: "join", Duration: joinDur},
	)
	return res
}

// partitionTable charges the modelled cost of Gbase's two partition passes
// over one table. Pass 1 and pass 2 are both chunk-parallel: the paper's
// Gbase lets all threads scan and copy to linked bucket lists, so the work
// per block depends only on the chunk size, never on skew.
func partitionTable(dev *gpusim.Device, tuples []relation.Tuple, fanout1 int) time.Duration {
	var total time.Duration
	for pass := 0; pass < 2; pass++ {
		total += partitionPass(dev, len(tuples), fanout1)
	}
	return total
}

// partitionPass models one scan-and-scatter pass over n tuples.
func partitionPass(dev *gpusim.Device, n, fanout int) time.Duration {
	dcfg := dev.Config()
	blocks := 4 * dcfg.NumSMs
	chunk := (n + blocks - 1) / blocks
	if chunk == 0 {
		chunk = 1
		blocks = n
	}
	if blocks == 0 {
		blocks = 1
	}
	return dev.Launch("partition", "gbase-partition-pass", blocks, func(b *gpusim.Block) {
		lo := b.Idx * chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		c := hi - lo
		// Read the chunk coalesced (in register batches of batchTuples).
		b.GlobalCoalesced(c * relation.TupleSize)
		// Every tuple is staged through shared memory for the reorder: one
		// write and one read, plus the batch bookkeeping.
		b.Shared(2*c + c/batchTuples)
		// Hash + target computation.
		b.UniformWork(c, 2)
		// Bucket allocations: one atomic per filled bucket per partition
		// touched, plus the per-tuple position atomics within buckets.
		b.Atomic(c/bucketTuples + fanout)
		// Write the reordered tuples coalesced.
		b.GlobalCoalesced(c * relation.TupleSize)
	})
}

type joinTask struct {
	r, s []relation.Tuple // the R sub-list and the full S partition
}

// joinPhase runs one thread block per (R sub-list, S partition) pair. An R
// partition holding more tuples than fit in shared memory is decomposed
// into disjoint runs of consecutive buckets — the paper's sub-list
// technique — each joined against the full S partition. A sub-list is
// max(1, subSize/bucketTuples) whole buckets of consecutive tuples (the
// last may be shorter).
func joinPhase(dev *gpusim.Device, cfg Config, pr, ps *radix.Partitioned, capacity int, st *Stats) time.Duration {
	subSize := cfg.SubListTuples
	if subSize <= 0 || subSize > capacity {
		subSize = capacity
	}
	subTuples := max(1, subSize/bucketTuples) * bucketTuples
	var tasks []joinTask
	for p := 0; p < pr.Fanout(); p++ {
		rPart, sPart := pr.Part(p), ps.Part(p)
		if len(rPart) == 0 || len(sPart) == 0 {
			continue
		}
		if len(rPart) <= capacity {
			tasks = append(tasks, joinTask{r: rPart, s: sPart})
			continue
		}
		for lo := 0; lo < len(rPart); lo += subTuples {
			tasks = append(tasks, joinTask{r: rPart[lo:min(lo+subTuples, len(rPart))], s: sPart})
			st.SubListBlocks++
			st.SReprobes += uint64(len(sPart))
		}
	}
	st.JoinBlocks = len(tasks)
	if len(tasks) == 0 {
		return 0
	}

	return dev.Launch("join", "gbase-join", len(tasks), func(b *gpusim.Block) {
		t := tasks[b.Idx]
		// The block reads its R sub-list into shared memory and probes
		// with every tuple of the full S partition.
		gpupart.ProbeJoinBlock(b, t.r, t.s)
	})
}
