package gpusim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// stressKernel exercises every cost-accounting method plus every output
// path, with per-block work that varies hard with the block index (a
// synthetic skew profile): the worst case for any execution-order
// dependence to hide in.
func stressKernel(seed int64) func(b *Block) {
	return func(b *Block) {
		rng := rand.New(rand.NewSource(seed + int64(b.Idx)))
		work := 1 + b.Idx%17
		if b.Idx%13 == 0 {
			work *= 50 // a few giant blocks
		}
		b.GlobalCoalesced(work * 64)
		b.GlobalRandom(work)
		b.GlobalDependent(work / 2)
		b.Shared(3 * work)
		b.Compute(work)
		b.Atomic(work / 3)
		b.Barrier(1 + work/8)
		b.UniformWork(work, 2)
		visits := []int{work % 5, work % 3, work % 7}
		b.WarpLoop(visits, 4)

		// Probe-style runs: consecutive slices of one append-only
		// per-block array, as a probe hands out slices of its build table.
		payloads := make([]relation.Payload, 0, 3*work)
		for i := 0; i < work; i++ {
			lo := len(payloads)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				payloads = append(payloads, relation.Payload(rng.Uint32()))
			}
			b.Out.PushRun(relation.Key(rng.Uint32()), payloads[lo:], relation.Payload(rng.Uint32()), outbuf.PayloadSum(payloads[lo:]))
		}
		run := make([]relation.Payload, 1+work%4)
		for i := range run {
			run[i] = relation.Payload(rng.Uint32())
		}
		sum := outbuf.PayloadSum(run)
		b.Out.PushRun(relation.Key(b.Idx), run, 7, sum)
		b.Out.PushRunS(relation.Key(b.Idx), 9, run, sum)
	}
}

// sweepShapes are the block counts of launchSweep's launches.
var sweepShapes = []int{1, 3, 64, 257}

// launchSweep runs a few launches of different shapes on one device,
// recording every flush batch per SM, and returns the flush streams.
func launchSweep(cfg Config, seed int64) (*Device, [][][]outbuf.Result) {
	dev := NewDevice(cfg)
	streams := make([][][]outbuf.Result, cfg.NumSMs)
	dev.SetFlush(func(sm int) outbuf.FlushFunc {
		return func(batch []outbuf.Result) {
			cp := make([]outbuf.Result, len(batch))
			copy(cp, batch)
			streams[sm] = append(streams[sm], cp)
		}
	})
	for i, blocks := range sweepShapes {
		dev.Launch("phase", fmt.Sprintf("stress-%d", blocks), blocks, stressKernel(seed+int64(i)))
	}
	dev.Serialize("tail", "stress-serialize", 12345)
	dev.FlushOutputs()
	return dev, streams
}

// TestLaunchMatchesBlocksRunInOrder checks Launch against its
// definition: the output and stats of running every block in index order
// and pushing its runs straight into its SM's buffer. A launch that
// reordered blocks, sent a block's runs to another SM or leaked runs
// across launches shows up here.
func TestLaunchMatchesBlocksRunInOrder(t *testing.T) {
	cfg := Config{NumSMs: 8, SharedMemBytes: 4 << 10}
	ref := NewDevice(cfg)
	streams := make([][][]outbuf.Result, cfg.NumSMs)
	bufs := make([]*outbuf.Buffer, cfg.NumSMs)
	for sm := range bufs {
		bufs[sm] = outbuf.New(0)
		bufs[sm].SetFlush(func(batch []outbuf.Result) {
			streams[sm] = append(streams[sm], append([]outbuf.Result(nil), batch...))
		})
	}
	for i, blocks := range sweepShapes {
		kernel := stressKernel(99 + int64(i))
		for idx := 0; idx < blocks; idx++ {
			kernel(&Block{Idx: idx, Out: outbuf.NewTape(bufs[idx%cfg.NumSMs]), dev: ref})
		}
	}
	for _, b := range bufs {
		b.Flush()
	}
	want := outbuf.Summarize(bufs)

	dev, got := launchSweep(cfg, 99)
	if dev.OutputSummary() != want {
		t.Errorf("output summary %+v, want %+v", dev.OutputSummary(), want)
	}
	st := dev.Stats()
	st.Launches, st.Blocks = 0, 0
	if st != ref.Stats() {
		t.Errorf("stats %+v, want %+v", st, ref.Stats())
	}
	if !reflect.DeepEqual(got, streams) {
		t.Error("flush batch streams differ from the blocks run in order")
	}
}
