package gpusim

import (
	"testing"

	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// FuzzHostParallelLaunch is the differential fuzzer of the two
// ways a block's runs reach its SM: arbitrary launch shapes (block
// counts, SM counts, cost mixes, output patterns) run twice, once with a
// flush consumer on every SM, which gets every result through the ring,
// and once without, where each run only folds into its SM's count and
// checksum from its payload sum. The runs must agree on every
// LaunchRecord, on Stats and on each SM's count and checksum, and the
// flushed results' checksum terms must add up to their SM's checksum: the
// O(1) fold is checked against the results the ring actually received.
// The corpus seeds cover the structural edges (0/1 blocks, one SM,
// giant-block skew). The name dates from when the fuzzer compared host
// worker counts; it and the seed corpus are kept so the ids stay stable.
func FuzzHostParallelLaunch(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(1), int64(2))
	f.Add(uint8(7), uint8(3), int64(3))
	f.Add(uint8(200), uint8(16), int64(4))
	f.Add(uint8(255), uint8(2), int64(5))

	f.Fuzz(func(t *testing.T, nblocks, nsms uint8, seed int64) {
		blocks, sms := int(nblocks), int(nsms%16)+1
		kernel := func(b *Block) {
			// Derive the block's cost/output mix from seed and index
			// only, so both runs compute identical work.
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
			// per-block array.
			payloads := make([]relation.Payload, 0, 4*work)
			for i := 0; i < work; i++ {
				lo := len(payloads)
				for j := 0; j <= i%4; j++ {
					payloads = append(payloads, relation.Payload(h)+relation.Payload(i*7+j))
				}
				b.Out.PushRun(relation.Key(h>>32)+relation.Key(i), payloads[lo:], relation.Payload(i), outbuf.PayloadSum(payloads[lo:]))
			}
			if work%2 == 0 {
				b.Out.PushRun(relation.Key(b.Idx), []relation.Payload{1, 2, 3}, relation.Payload(work), 6)
				b.Out.PushRunS(relation.Key(b.Idx), relation.Payload(work), payloads, outbuf.PayloadSum(payloads))
			}
		}
		newDev := func() *Device { return NewDevice(Config{NumSMs: sms, SharedMemBytes: 1 << 10}) }

		folded := newDev()
		folded.Launch("fuzz", "fuzz-kernel", blocks, kernel)
		folded.FlushOutputs()

		flushed := newDev()
		counts := make([]uint64, sms)
		terms := make([]uint64, sms)
		flushed.SetFlush(func(sm int) outbuf.FlushFunc {
			return func(batch []outbuf.Result) {
				counts[sm] += uint64(len(batch))
				for _, r := range batch {
					terms[sm] += outbuf.ChecksumTerm(r.Key, r.PayloadR, r.PayloadS)
				}
			}
		})
		flushed.Launch("fuzz", "fuzz-kernel", blocks, kernel)
		flushed.FlushOutputs()

		fr, cr := folded.Records(), flushed.Records()
		if len(fr) != len(cr) {
			t.Fatalf("record counts differ: %d vs %d", len(fr), len(cr))
		}
		for i := range fr {
			if fr[i] != cr[i] {
				t.Fatalf("record %d differs:\nfolded:  %+v\nflushed: %+v", i, fr[i], cr[i])
			}
		}
		if folded.Stats() != flushed.Stats() {
			t.Fatalf("stats differ:\nfolded:  %+v\nflushed: %+v", folded.Stats(), flushed.Stats())
		}
		for sm := 0; sm < sms; sm++ {
			f, c := folded.bufs[sm], flushed.bufs[sm]
			if f.Count() != c.Count() || f.Checksum() != c.Checksum() {
				t.Fatalf("SM %d: folded (%d, %#x), flushed (%d, %#x)", sm, f.Count(), f.Checksum(), c.Count(), c.Checksum())
			}
			if counts[sm] != c.Count() || terms[sm] != c.Checksum() {
				t.Fatalf("SM %d: consumer saw %d results with checksum %#x, the buffer counts %d with %#x",
					sm, counts[sm], terms[sm], c.Count(), c.Checksum())
			}
		}
	})
}
