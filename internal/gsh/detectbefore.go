package gsh

import (
	"time"

	"skewjoin/internal/exec"
	"skewjoin/internal/freqtable"
	"skewjoin/internal/gpupart"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/relation"
)

// joinDetectBefore is the DetectBefore ablation: CSH's detect-then-
// partition structure executed under the GPU cost model. It produces
// exactly the same join output as GSH, but its partition kernels pay for
// the per-tuple skew check, for warp divergence between the skewed and
// normal code paths, and for serialised appends to the skewed arrays —
// the costs §IV-B says motivated detecting *after* the partition phase.
func joinDetectBefore(dev *gpusim.Device, r, s relation.Relation, cfg Config, bits1, bits2 uint32, capacity int, res Result) Result {
	// Detection: sample table R (whole-table, CSH-style), take the keys
	// whose sampled frequency suggests their tuple count exceeds the
	// shared-memory budget.
	stride := int(1 / cfg.SampleRate)
	if stride < 1 {
		stride = 1
	}
	var skewKeys map[relation.Key]int
	detectDur := dev.Launch("detect", "gsh-pre-detect", 1, func(b *gpusim.Block) {
		counter := freqtable.New(r.Len()/stride + 1)
		sampled := 0
		for i := 0; i < r.Len(); i += stride {
			counter.Add(r.Tuples[i].Key)
			sampled++
		}
		b.GlobalRandom(sampled)
		b.Shared(3 * sampled)
		b.Compute(2 * counter.Distinct())
		// A key is skewed when its estimated full-table frequency alone
		// would overflow a shared-memory partition.
		threshold := uint32(capacity/stride) + 1
		skewKeys = make(map[relation.Key]int)
		for _, kc := range counter.AtLeast(threshold) {
			skewKeys[kc.Key] = len(skewKeys)
		}
	})
	res.Stats.SkewedKeys = len(skewKeys)

	// Partition with in-kernel skew checking. Functionally: split both
	// tables into skewed per-key arrays plus radix partitions of the rest.
	skewed := make([]*skewedKey, 0, len(skewKeys))
	for k := range skewKeys {
		skewed = append(skewed, &skewedKey{key: k})
	}
	// Deterministic order for reproducible launches.
	sortSkewed(skewed)
	idOf := make(map[relation.Key]int, len(skewed))
	for i, sk := range skewed {
		idOf[sk.key] = i
	}

	partDur := partitionWithCheck(dev, r.Tuples, idOf, skewed, true)
	partDur += partitionWithCheck(dev, s.Tuples, idOf, skewed, false)
	normalR := filterTuples(r.Tuples, idOf)
	normalS := filterTuples(s.Tuples, idOf)
	pr := gpupart.Functional(normalR, bits1, bits2)
	ps := gpupart.Functional(normalS, bits1, bits2)
	for _, sk := range skewed {
		res.Stats.SkewedTuplesR += len(sk.rps)
		res.Stats.SkewedTuplesS += len(sk.sps)
	}

	pairs := make([]pair, 0, pr.Fanout())
	for p := 0; p < pr.Fanout(); p++ {
		pairs = append(pairs, pair{r: pr.Part(p), s: ps.Part(p)})
	}
	nmDur := nmJoin(dev, pairs, capacity, &res.Stats)
	skewDur := skewJoin(dev, skewed, &res.Stats)

	dev.FlushOutputs()
	res.Summary = dev.OutputSummary()
	res.Stats.Sim = dev.Stats()
	res.Trace = dev.Records()
	res.Phases = []exec.Phase{
		{Name: "partition", Duration: partDur},
		{Name: "detect", Duration: detectDur},
		{Name: "divide", Duration: 0},
		{Name: "nmjoin", Duration: nmDur},
		{Name: "skewjoin", Duration: skewDur},
	}
	return res
}

func sortSkewed(sk []*skewedKey) {
	for i := 1; i < len(sk); i++ {
		for j := i; j > 0 && sk[j].key < sk[j-1].key; j-- {
			sk[j], sk[j-1] = sk[j-1], sk[j]
		}
	}
}

// filterTuples returns the tuples whose keys are not skewed.
func filterTuples(tuples []relation.Tuple, idOf map[relation.Key]int) []relation.Tuple {
	out := make([]relation.Tuple, 0, len(tuples))
	for _, tp := range tuples {
		if _, skewedKey := idOf[tp.Key]; !skewedKey {
			out = append(out, tp)
		}
	}
	return out
}

// partitionWithCheck models a partition pass whose kernel checks every
// tuple against the skew table, charging the mixed-warp divergence and the
// serialised skewed-array appends; functionally it collects the skewed
// tuples into their per-key arrays.
func partitionWithCheck(dev *gpusim.Device, tuples []relation.Tuple, idOf map[relation.Key]int, skewed []*skewedKey, isR bool) time.Duration {
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
	var total time.Duration
	totalSkewed := 0
	// Per-block staging for the functional side effects (pass 0 only):
	// each block records its chunk's skewed payloads in a private slot and
	// the host merges the slots in block-index order after the launch, so
	// the per-key array order matches the blocks running in index order.
	type chunkOut struct {
		skewed int
		perKey [][]relation.Payload // indexed like `skewed`
	}
	for pass := 0; pass < 2; pass++ {
		charge := pass == 0 // collect the skewed tuples only once
		outs := make([]chunkOut, blocks)
		total += dev.Launch("partition", "gsh-partition-checked", blocks, func(b *gpusim.Block) {
			lo := b.Idx * chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			c := hi - lo
			// Baseline pass costs (count scan + copy scan), as in the
			// regular GSH pass-1 kernel.
			b.GlobalCoalesced(3 * c * relation.TupleSize)
			b.UniformWork(c, 4)
			// Per-tuple skew-table probe.
			b.UniformWork(c, 2)
			// Divergence: a warp containing both skewed and normal tuples
			// executes both code paths — charge a second pass over the
			// warp's work whenever it is mixed. Serialised appends: every
			// skewed tuple pays an atomic on its key's array cursor.
			ws := dcfg.WarpSize
			skewedInChunk := 0
			mixedWarpWork := 0
			for wlo := lo; wlo < hi; wlo += ws {
				whi := wlo + ws
				if whi > hi {
					whi = hi
				}
				cnt := 0
				for _, tp := range tuples[wlo:whi] {
					if _, ok := idOf[tp.Key]; ok {
						cnt++
					}
				}
				skewedInChunk += cnt
				if cnt > 0 && cnt < whi-wlo {
					mixedWarpWork += whi - wlo
				}
			}
			b.UniformWork(mixedWarpWork, 4)
			if charge {
				o := &outs[b.Idx]
				o.skewed = skewedInChunk
				o.perKey = make([][]relation.Payload, len(skewed))
				for _, tp := range tuples[lo:hi] {
					if id, ok := idOf[tp.Key]; ok {
						o.perKey[id] = append(o.perKey[id], tp.Payload)
					}
				}
			}
		})
		if charge {
			for bi := range outs {
				o := &outs[bi]
				totalSkewed += o.skewed
				for id, ps := range o.perKey {
					if isR {
						skewed[id].rps = append(skewed[id].rps, ps...)
					} else {
						skewed[id].sps = append(skewed[id].sps, ps...)
					}
				}
			}
		}
	}
	// The skewed appends all bump a handful of per-key cursors, so the
	// atomics contend on the same addresses and serialise device-wide —
	// the decisive cost of in-kernel skew handling on a GPU.
	total += dev.Serialize("partition", "gsh-skewed-append-contention",
		float64(totalSkewed)*dev.Config().AtomicCost)
	return total
}
