package gpusim

import (
	"testing"

	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// FuzzHostParallelLaunch is the differential fuzzer of the worker count:
// arbitrary launch shapes (block counts, cost mixes, output patterns, pool
// sizes) must leave a many-worker device in exactly the one-worker
// device's state — same LaunchRecord cycles, same Stats, same output
// summary, and the same flushed output bytes in the same batch order
// across all SMs. The corpus seeds cover the structural edges (0/1
// blocks, more workers than blocks, giant-block skew).
func FuzzHostParallelLaunch(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(1), int64(2))
	f.Add(uint8(7), uint8(3), int64(3))
	f.Add(uint8(200), uint8(16), int64(4))
	f.Add(uint8(255), uint8(2), int64(5))

	f.Fuzz(func(t *testing.T, nblocks, par uint8, seed int64) {
		blocks := int(nblocks)
		run := func(hostPar int) (*Device, [][]byte) {
			dev := NewDevice(Config{
				NumSMs:          4,
				SharedMemBytes:  1 << 10,
				HostParallelism: hostPar,
			})
			flushed := make([][]byte, 0, 8)
			dev.SetFlush(func(sm int) outbuf.FlushFunc {
				return func(batch []outbuf.Result) {
					bs := make([]byte, 0, len(batch)*12)
					for _, r := range batch {
						bs = append(bs,
							byte(sm),
							byte(r.Key), byte(r.Key>>8), byte(r.Key>>16), byte(r.Key>>24),
							byte(r.PayloadR), byte(r.PayloadR>>8),
							byte(r.PayloadS), byte(r.PayloadS>>8))
					}
					flushed = append(flushed, bs)
				}
			})
			dev.Launch("fuzz", "fuzz-kernel", blocks, func(b *Block) {
				// Derive the block's cost/output mix from seed and index
				// only, so every worker count computes identical work.
				h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(b.Idx)*0xc2b2ae3d27d4eb4f
				work := int(h%97) + 1
				if h%11 == 0 {
					work *= 40
				}
				b.GlobalCoalesced(work * 8)
				b.GlobalRandom(work % 9)
				b.Atomic(work % 5)
				b.Barrier(work % 3)
				b.UniformWork(work, 1.5)
				// Probe-style runs: consecutive slices of one append-only
				// per-block array, which a tape retains until it replays.
				payloads := make([]relation.Payload, 0, 4*work)
				for i := 0; i < work; i++ {
					lo := len(payloads)
					for j := 0; j <= i%4; j++ {
						payloads = append(payloads, relation.Payload(h)+relation.Payload(i*7+j))
					}
					b.Out.PushRun(relation.Key(h>>32)+relation.Key(i), payloads[lo:], relation.Payload(i))
				}
				if work%2 == 0 {
					b.Out.PushRun(relation.Key(b.Idx), []relation.Payload{1, 2, 3}, relation.Payload(work))
				}
			})
			dev.FlushOutputs()
			return dev, flushed
		}

		serial, serialFlushed := run(0)
		parallel, parFlushed := run(int(par%32) + 1)

		sr, pr := serial.Records(), parallel.Records()
		if len(sr) != len(pr) {
			t.Fatalf("record counts differ: %d vs %d", len(sr), len(pr))
		}
		for i := range sr {
			if sr[i] != pr[i] {
				t.Fatalf("record %d differs:\nserial:   %+v\nparallel: %+v", i, sr[i], pr[i])
			}
		}
		if serial.Stats() != parallel.Stats() {
			t.Fatalf("stats differ:\nserial:   %+v\nparallel: %+v", serial.Stats(), parallel.Stats())
		}
		if serial.OutputSummary() != parallel.OutputSummary() {
			t.Fatalf("summaries differ: %+v vs %+v", serial.OutputSummary(), parallel.OutputSummary())
		}
		if len(serialFlushed) != len(parFlushed) {
			t.Fatalf("flush batch counts differ: %d vs %d", len(serialFlushed), len(parFlushed))
		}
		for i := range serialFlushed {
			if string(serialFlushed[i]) != string(parFlushed[i]) {
				t.Fatalf("flushed batch %d bytes differ", i)
			}
		}
	})
}
