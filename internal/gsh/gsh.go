// Package gsh implements GSH, the paper's GPU Skew-conscious Hash join
// (§IV-B), running on the gpusim device model.
//
// Unlike CSH, GSH detects skewed keys *after* the partition phase: checking
// a skew table inside the partition kernel would put normal and skewed
// tuples on different code paths and cause severe SIMT divergence, while
// the high global-memory bandwidth makes the extra copy of large partitions
// cheap. GSH's phases:
//
//  1. Partition R and S into shared-memory-sized partitions with a simple
//     count-then-partition procedure (two scans per pass, two passes),
//     avoiding Gbase's dynamic bucket allocation.
//  2. Detect skewed keys in large partitions: partitions larger than the
//     shared-memory budget are sampled (default 1%) into a linear-probing
//     frequency table, and the top-k (default 3) keys of each large
//     partition are marked skewed.
//  3. Divide each large partition: skewed tuples are appended to per-key
//     arrays, the remainder forms a normal partition. The corresponding
//     S partition is divided with the same key set.
//  4. NM-join: one thread block joins each pair of normal partitions,
//     exactly like Gbase's join procedure.
//  5. Skew-join: join results for a skewed key are produced by many thread
//     blocks — each block takes one R tuple from the skewed R array and
//     streams the skewed S array with coalesced reads and coalesced result
//     writes, fully exploiting the GPU's parallelism.
package gsh

import (
	"time"

	"skewjoin/internal/exec"
	"skewjoin/internal/freqtable"
	"skewjoin/internal/gpupart"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/hashfn"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
)

// Config tunes GSH.
type Config struct {
	// Device configures the simulated GPU (zero fields = A100).
	Device gpusim.Config
	// SampleRate is the fraction of a large partition sampled for skew
	// detection (paper example: 1%).
	SampleRate float64
	// TopK is the number of most-frequent sampled keys per large partition
	// marked as skewed (paper: k=3 was sufficient).
	TopK int
	// STileTuples tiles the skewed S array in the skew-join phase: a block
	// handles one R tuple and one S tile instead of the whole S array.
	// The paper's scheme is one block per skewed *R tuple* (§IV-B step 5),
	// which parallelises perfectly when both sides of a skewed key are
	// large — but degenerates to a single block when a skewed key has few
	// R tuples (e.g. a foreign-key join whose skew is all on the S side).
	// Tiling is this repository's extension that fixes the degenerate
	// case; set it negative to disable and get the paper-literal scheme.
	// 0 means the default tile (the shared-memory partition capacity).
	STileTuples int
	// IncludeTransfer adds a "transfer" phase modelling the PCIe copy of
	// both input tables to the device, quantifying the GPU-resident-data
	// argument of §II-B.
	IncludeTransfer bool
	// Flush optionally installs a per-SM batch consumer on the device's
	// output buffers (the volcano model's upper operator).
	Flush func(sm int) outbuf.FlushFunc
	// DetectBefore is an ablation of the paper's §IV-B design argument: it
	// moves skew detection *before* the partition phase, CSH-style. The
	// partition kernels then check every tuple against the skew table,
	// which puts skewed and normal tuples on different code paths — warps
	// holding both kinds execute both paths (SIMT divergence), and the
	// appends to per-key skewed arrays serialise on their cursors. The
	// paper rejects this design for GPUs; the ablation benchmark shows the
	// modelled cost of ignoring that advice.
	DetectBefore bool
}

// Defaults fills zero fields with the paper's example parameters.
func (c Config) Defaults() Config {
	c.Device = c.Device.Defaults()
	if c.SampleRate <= 0 {
		c.SampleRate = 0.01
	}
	if c.TopK <= 0 {
		c.TopK = 3
	}
	return c
}

// Stats reports the internals of a GSH run.
type Stats struct {
	Bits1, Bits2    uint32
	Fanout          int
	LargePartitions int
	SkewedKeys      int
	SkewedTuplesR   int
	SkewedTuplesS   int
	NMBlocks        int
	SkewBlocks      int
	Sim             gpusim.Stats
}

// Result is the outcome of one GSH run. All durations are modelled GPU
// time from the simulator.
type Result struct {
	Summary outbuf.Summary
	Phases  exec.Phases // "partition", "detect", "divide", "nmjoin", "skewjoin"
	Stats   Stats
	// Trace lists every kernel launch with its block count, makespan and
	// imbalance — the simulator's per-launch records.
	Trace []gpusim.LaunchRecord
}

// Phase returns the duration recorded under name (0 if absent).
func (r Result) Phase(name string) time.Duration {
	var d time.Duration
	for _, p := range r.Phases {
		if p.Name == name {
			d += p.Duration
		}
	}
	return d
}

// AllOther returns the run time excluding the partition phase — the
// "GSH all other" row of the paper's Table I (detection, division, NM-join
// and skew-join all process skewed tuples toward join results).
func (r Result) AllOther() time.Duration {
	var d time.Duration
	for _, p := range r.Phases {
		if p.Name != "partition" && p.Name != "transfer" {
			d += p.Duration
		}
	}
	return d
}

// skewedKey is one detected skewed key with its diverted tuples.
type skewedKey struct {
	key relation.Key
	rps []relation.Payload // payloads of skewed R tuples
	sps []relation.Payload // payloads of skewed S tuples
}

// pair is one partition pair after division: normal tuples only.
type pair struct {
	r, s []relation.Tuple
}

// Join runs GSH over r and s on a fresh simulated device.
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
	b1, b2 := gpupart.Fanout(n, capacity)
	// GSH puts almost all radix bits into pass 1 so that pass 2 — whose
	// unit of work is a pass-1 partition — launches more blocks than SMs
	// on uniform data (see partitionTable).
	bits1, bits2 := b1+b2-1, uint32(1)

	var res Result
	res.Stats.Bits1, res.Stats.Bits2 = bits1, bits2
	res.Stats.Fanout = 1 << (bits1 + bits2)

	var transferDur time.Duration
	if cfg.IncludeTransfer {
		transferDur = dev.Transfer("transfer", "gsh-h2d", r.Bytes()+s.Bytes())
	}

	if cfg.DetectBefore {
		res = joinDetectBefore(dev, r, s, cfg, bits1, bits2, capacity, res)
		if cfg.IncludeTransfer {
			res.Phases = append([]exec.Phase{{Name: "transfer", Duration: transferDur}}, res.Phases...)
		}
		return res
	}

	// Phase 1: count-then-partition, two passes.
	pr := gpupart.Functional(r.Tuples, bits1, bits2)
	partDur := partitionTable(dev, r.Tuples, pr, bits1, bits2)
	ps := gpupart.Functional(s.Tuples, bits1, bits2)
	partDur += partitionTable(dev, s.Tuples, ps, bits1, bits2)

	// Phases 2+3: detect and divide large partitions.
	pairs, skewed, detectDur, divideDur := detectAndDivide(dev, cfg, pr, ps, capacity, &res.Stats)

	// Phase 4: NM-join over normal partitions.
	nmDur := nmJoin(dev, pairs, capacity, &res.Stats)

	// Phase 5: skew-join with multiple blocks per skewed key.
	skewDur := skewJoin(dev, skewed, sTile(cfg, capacity), &res.Stats)

	dev.FlushOutputs()
	res.Summary = dev.OutputSummary()
	res.Stats.Sim = dev.Stats()
	res.Trace = dev.Records()
	if cfg.IncludeTransfer {
		res.Phases = append(res.Phases, exec.Phase{Name: "transfer", Duration: transferDur})
	}
	res.Phases = append(res.Phases,
		exec.Phase{Name: "partition", Duration: partDur},
		exec.Phase{Name: "detect", Duration: detectDur},
		exec.Phase{Name: "divide", Duration: divideDur},
		exec.Phase{Name: "nmjoin", Duration: nmDur},
		exec.Phase{Name: "skewjoin", Duration: skewDur},
	)
	return res
}

// partitionTable charges the modelled cost of GSH's two count-then-
// partition passes over one table.
//
// Pass 1 is chunk-parallel (count scan, then copy with reserved offsets) on
// the low bits1 bits; GSH avoids Gbase's bucket-management atomics here, so
// at low skew its partition phase is slightly cheaper (Table I: 5.9ms vs
// 6.78ms at zipf 0.5). Pass 2 refines each pass-1 partition in place: the
// partition-local count and prefix-sum make the partition the unit of
// work, so one thread block handles one pass-1 partition. GSH therefore
// uses a large pass-1 fanout (so blocks outnumber SMs on uniform data) —
// but under heavy skew the pass-1 partition holding the most popular key
// grows far beyond average and its block dominates the pass-2 makespan.
// That is the mechanism behind Table I's GSH partition row growing from
// 5.9ms to 24.5ms while Gbase's chunk-balanced bucket scheme stays flat.
//
// part is the table's final partitioning (bits1+bits2 radix bits): pass-1
// partition p is its consecutive partitions p<<bits2 .. (p+1)<<bits2 - 1,
// so the pass-2 block sizes come from its offsets.
func partitionTable(dev *gpusim.Device, tuples []relation.Tuple, part *radix.Partitioned, bits1, bits2 uint32) time.Duration {
	// Pass 1: chunk-parallel scatter on the low bits1 bits.
	dur := partitionPass(dev, tuples, 0, bits1)

	// Pass 2: one block per pass-1 partition (count scan + prefix sum +
	// copy scan over the partition's contiguous region).
	fan2 := 1 << bits2
	dur += dev.Launch("partition", "gsh-partition-pass2", 1<<bits1, func(b *gpusim.Block) {
		c := part.Offsets[(b.Idx+1)*fan2] - part.Offsets[b.Idx*fan2]
		b.GlobalCoalesced(c * relation.TupleSize) // count scan
		b.UniformWork(c, 2)
		b.Compute(fan2)                               // partition-local prefix sum
		b.GlobalCoalesced(2 * c * relation.TupleSize) // copy scan: read + write
		b.UniformWork(c, 2)
	})
	return dur
}

// partitionPass models one count-then-partition pass over the table,
// scattering on the radix bits [shift, shift+bits).
func partitionPass(dev *gpusim.Device, tuples []relation.Tuple, shift, bits uint32) time.Duration {
	n := len(tuples)
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
	fan := 1 << bits
	return dev.Launch("partition", "gsh-partition-pass", blocks, func(b *gpusim.Block) {
		lo := b.Idx * chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		c := hi - lo
		// Count scan: read + hash.
		b.GlobalCoalesced(c * relation.TupleSize)
		b.UniformWork(c, 2)
		// Offset reservation: one atomic per target partition per block.
		b.Atomic(fan)
		// Copy scan: read again, write into reserved windows.
		b.GlobalCoalesced(c * relation.TupleSize)
		b.GlobalCoalesced(c * relation.TupleSize)
		b.UniformWork(c, 2)
		// Scatter serialisation: per warp, lanes targeting the same
		// partition contend on its staging slot; the warp pays for its
		// most popular target.
		ws := dcfg.WarpSize
		conflicts := 0
		counts := make([]int, fan)
		for wlo := lo; wlo < hi; wlo += ws {
			whi := wlo + ws
			if whi > hi {
				whi = hi
			}
			max := 0
			for _, tp := range tuples[wlo:whi] {
				p := hashfn.Radix(tp.Key, shift, bits)
				counts[p]++
				if counts[p] > max {
					max = counts[p]
				}
			}
			for _, tp := range tuples[wlo:whi] {
				counts[hashfn.Radix(tp.Key, shift, bits)] = 0
			}
			conflicts += max
		}
		b.Shared(2 * conflicts)
	})
}

// detectAndDivide implements phases 2 and 3. Detection samples each large
// partition (on whichever sides are large — sampling the S side as well is
// what lets GSH handle S-side skew, which Gbase's sub-lists cannot).
// Division rewrites each large pair into per-key skewed arrays plus normal
// partitions, using one key set for both sides so matches are preserved.
func detectAndDivide(dev *gpusim.Device, cfg Config, pr, ps *radix.Partitioned, capacity int, st *Stats) (pairs []pair, skewed []*skewedKey, detectDur, divideDur time.Duration) {
	type largePair struct {
		part int
		keys []relation.Key // detected skewed keys of this pair
	}
	var large []*largePair
	for p := 0; p < pr.Fanout(); p++ {
		if pr.Size(p) > capacity || ps.Size(p) > capacity {
			large = append(large, &largePair{part: p})
		} else {
			pairs = append(pairs, pair{r: pr.Part(p), s: ps.Part(p)})
		}
	}
	st.LargePartitions = len(large)
	if len(large) == 0 {
		return pairs, nil, 0, 0
	}

	// Phase 2: one detection block per large partition side. Each block
	// writes its top-k into a private per-task slot; the union into the
	// pair's key set happens host-side in task order, so the kernel has no
	// cross-block side effects and the key order is execution-independent.
	type detTask struct {
		lp   *largePair
		part []relation.Tuple
	}
	var tasks []detTask
	for _, lp := range large {
		if pr.Size(lp.part) > capacity {
			tasks = append(tasks, detTask{lp: lp, part: pr.Part(lp.part)})
		}
		if ps.Size(lp.part) > capacity {
			tasks = append(tasks, detTask{lp: lp, part: ps.Part(lp.part)})
		}
	}
	topk := make([][]freqtable.KeyCount, len(tasks))
	detectDur = dev.Launch("detect", "gsh-detect", len(tasks), func(b *gpusim.Block) {
		t := tasks[b.Idx]
		stride := int(1 / cfg.SampleRate)
		if stride < 1 {
			stride = 1
		}
		counter := freqtable.New(len(t.part)/stride + 1)
		sampled := 0
		for i := 0; i < len(t.part); i += stride {
			counter.Add(t.part[i].Key)
			sampled++
		}
		// Sampled strided reads are scattered; counting is a few shared
		// ops per sample; the final top-k scan touches the whole table.
		b.GlobalRandom(sampled)
		b.Shared(3 * sampled)
		b.Compute(2 * counter.Distinct())
		topk[b.Idx] = counter.TopK(cfg.TopK)
	})
	for i := range tasks {
		lp := tasks[i].lp
		for _, kc := range topk[i] {
			dup := false
			for _, k := range lp.keys {
				if k == kc.Key {
					dup = true
					break
				}
			}
			if !dup {
				lp.keys = append(lp.keys, kc.Key)
			}
		}
	}

	// Phase 3: divide each large pair. Chunk-parallel over the partition:
	// the extra read+write of large partitions is the "additional copy
	// operation" whose cost the high bandwidth keeps modest. Each chunk's
	// block classifies into private per-task slots; the appends to the
	// shared per-key arrays and normal partitions happen host-side in task
	// order, so the tuple order is identical however the blocks ran.
	type divTask struct {
		lp    *largePair
		part  []relation.Tuple
		lo    int
		isR   bool
		local []*skewedKey // per-pair skewed key objects, indexed like lp.keys
	}
	type divOut struct {
		perKey [][]relation.Payload // diverted payloads, indexed like lp.keys
		normal []relation.Tuple
	}
	perPair := make(map[*largePair][]*skewedKey, len(large))
	for _, lp := range large {
		sk := make([]*skewedKey, len(lp.keys))
		for i, k := range lp.keys {
			sk[i] = &skewedKey{key: k}
		}
		perPair[lp] = sk
		skewed = append(skewed, sk...)
	}
	st.SkewedKeys = len(skewed)

	const divChunk = 1 << 14
	var dtasks []divTask
	normalR := make(map[*largePair][]relation.Tuple, len(large))
	normalS := make(map[*largePair][]relation.Tuple, len(large))
	for _, lp := range large {
		for lo := 0; lo < pr.Size(lp.part); lo += divChunk {
			dtasks = append(dtasks, divTask{lp: lp, part: pr.Part(lp.part), lo: lo, isR: true, local: perPair[lp]})
		}
		for lo := 0; lo < ps.Size(lp.part); lo += divChunk {
			dtasks = append(dtasks, divTask{lp: lp, part: ps.Part(lp.part), lo: lo, isR: false, local: perPair[lp]})
		}
	}
	douts := make([]divOut, len(dtasks))
	divideDur = dev.Launch("divide", "gsh-divide", len(dtasks), func(b *gpusim.Block) {
		t := dtasks[b.Idx]
		o := &douts[b.Idx]
		hi := t.lo + divChunk
		if hi > len(t.part) {
			hi = len(t.part)
		}
		c := hi - t.lo
		b.GlobalCoalesced(c * relation.TupleSize) // read
		// Compare against the (tiny) skewed key set, kept in registers.
		b.UniformWork(c, float64(1+len(t.lp.keys)))
		b.GlobalCoalesced(c * relation.TupleSize) // write (array or normal partition)
		b.Atomic(1 + len(t.lp.keys))              // per-chunk cursor reservations
		o.perKey = make([][]relation.Payload, len(t.lp.keys))
		for _, tp := range t.part[t.lo:hi] {
			diverted := false
			for i, k := range t.lp.keys {
				if tp.Key == k {
					o.perKey[i] = append(o.perKey[i], tp.Payload)
					diverted = true
					break
				}
			}
			if !diverted {
				o.normal = append(o.normal, tp)
			}
		}
	})
	for ti := range dtasks {
		t := &dtasks[ti]
		o := &douts[ti]
		for i := range t.lp.keys {
			if t.isR {
				t.local[i].rps = append(t.local[i].rps, o.perKey[i]...)
			} else {
				t.local[i].sps = append(t.local[i].sps, o.perKey[i]...)
			}
		}
		if t.isR {
			normalR[t.lp] = append(normalR[t.lp], o.normal...)
		} else {
			normalS[t.lp] = append(normalS[t.lp], o.normal...)
		}
	}
	for _, lp := range large {
		pairs = append(pairs, pair{r: normalR[lp], s: normalS[lp]})
	}
	for _, sk := range skewed {
		st.SkewedTuplesR += len(sk.rps)
		st.SkewedTuplesS += len(sk.sps)
	}
	return pairs, skewed, detectDur, divideDur
}

// nmJoin joins the normal partition pairs, one block per pair, with the
// Gbase-style sub-list fallback if a divided partition still exceeds the
// shared-memory budget.
func nmJoin(dev *gpusim.Device, pairs []pair, capacity int, st *Stats) time.Duration {
	type task struct{ r, s []relation.Tuple }
	var tasks []task
	for _, p := range pairs {
		if len(p.r) == 0 || len(p.s) == 0 {
			continue
		}
		if len(p.r) <= capacity {
			tasks = append(tasks, task{r: p.r, s: p.s})
			continue
		}
		for lo := 0; lo < len(p.r); lo += capacity {
			hi := lo + capacity
			if hi > len(p.r) {
				hi = len(p.r)
			}
			tasks = append(tasks, task{r: p.r[lo:hi], s: p.s})
		}
	}
	st.NMBlocks = len(tasks)
	if len(tasks) == 0 {
		return 0
	}
	return dev.Launch("nmjoin", "gsh-nmjoin", len(tasks), func(b *gpusim.Block) {
		t := tasks[b.Idx]
		gpupart.ProbeJoinBlock(b, t.r, t.s)
	})
}

// sTile resolves the skew-join S-tile size from the configuration.
func sTile(cfg Config, capacity int) int {
	switch {
	case cfg.STileTuples < 0:
		return 0 // disabled: paper-literal one block per R tuple
	case cfg.STileTuples == 0:
		return capacity
	default:
		return cfg.STileTuples
	}
}

// skewJoin produces the join results for the skewed keys: for every skewed
// key, one thread block per (R tuple, S tile) streams its slice of the
// skewed S array with coalesced reads and writes (§IV-B step 5, plus the
// S-tiling extension; tile <= 0 disables tiling). A task is an R payload
// and the index of its tile, whose payload sum is taken once for all the
// R tuples of its key.
func skewJoin(dev *gpusim.Device, skewed []*skewedKey, tile int, st *Stats) time.Duration {
	type task struct {
		tile int32
		rp   relation.Payload
	}
	var tiles []gpupart.Tile
	var tasks []task
	for _, sk := range skewed {
		if len(sk.rps) == 0 || len(sk.sps) == 0 {
			continue
		}
		step := len(sk.sps)
		if tile > 0 && tile < step {
			step = tile
		}
		first := len(tiles)
		tiles = gpupart.AppendTiles(tiles, sk.key, sk.sps, step)
		for _, rp := range sk.rps {
			for i := first; i < len(tiles); i++ {
				tasks = append(tasks, task{tile: int32(i), rp: rp})
			}
		}
	}
	st.SkewBlocks = len(tasks)
	if len(tasks) == 0 {
		return 0
	}
	return dev.Launch("skewjoin", "gsh-skewjoin", len(tasks), func(b *gpusim.Block) {
		t := tasks[b.Idx]
		gpupart.TileJoinBlock(b, &tiles[t.tile], t.rp)
	})
}
