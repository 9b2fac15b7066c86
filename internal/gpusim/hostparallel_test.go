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

// TestHostParallelismBitIdentical: for every worker-pool size, a device
// must reproduce the one-worker device (HostParallelism 0) bit for bit —
// launch records (incl. float makespans), stats, total elapsed time,
// output summary, and the exact flush batch streams of every SM ring.
func TestHostParallelismBitIdentical(t *testing.T) {
	base := Config{NumSMs: 8, SharedMemBytes: 4 << 10}
	serialDev, serialStreams := launchSweep(base, 99)

	for _, par := range []int{1, 2, 4, 16} {
		cfg := base
		cfg.HostParallelism = par
		parDev, parStreams := launchSweep(cfg, 99)

		if !reflect.DeepEqual(parDev.Records(), serialDev.Records()) {
			t.Fatalf("par=%d: launch records differ\npar:    %+v\nserial: %+v",
				par, parDev.Records(), serialDev.Records())
		}
		if parDev.Stats() != serialDev.Stats() {
			t.Fatalf("par=%d: stats differ\npar:    %+v\nserial: %+v",
				par, parDev.Stats(), serialDev.Stats())
		}
		if parDev.Elapsed() != serialDev.Elapsed() {
			t.Fatalf("par=%d: elapsed %v != serial %v", par, parDev.Elapsed(), serialDev.Elapsed())
		}
		if parDev.OutputSummary() != serialDev.OutputSummary() {
			t.Fatalf("par=%d: output summary %+v != serial %+v",
				par, parDev.OutputSummary(), serialDev.OutputSummary())
		}
		if !reflect.DeepEqual(parStreams, serialStreams) {
			t.Fatalf("par=%d: flush batch streams differ from serial", par)
		}
	}
}

// TestHostWorkers pins the pool-size resolution: non-positive settings
// mean one worker, and the pool never exceeds the block count.
func TestHostWorkers(t *testing.T) {
	cases := []struct{ par, blocks, want int }{
		{0, 100, 1},
		{-3, 100, 1},
		{1, 100, 1},
		{4, 100, 4},
		{8, 3, 3},
		{4, 0, 0},
	}
	for _, c := range cases {
		if got := hostWorkers(c.par, c.blocks); got != c.want {
			t.Errorf("hostWorkers(%d, %d) = %d, want %d", c.par, c.blocks, got, c.want)
		}
	}
}

// TestLaunchChunk pins the queue-claim granularity bounds.
func TestLaunchChunk(t *testing.T) {
	if got := launchChunk(10, 4); got != 1 {
		t.Errorf("small launch chunk = %d, want 1", got)
	}
	if got := launchChunk(1<<20, 4); got != 256 {
		t.Errorf("huge launch chunk = %d, want cap 256", got)
	}
	if got := launchChunk(4096, 4); got != 32 {
		t.Errorf("mid launch chunk = %d, want 32", got)
	}
}

// TestHostParallelEmptyLaunch: a zero-block launch must not spin up the
// pool and still charges the launch overhead.
func TestHostParallelEmptyLaunch(t *testing.T) {
	cfg := Config{NumSMs: 4, HostParallelism: 4}
	dev := NewDevice(cfg)
	dur := dev.Launch("p", "empty", 0, func(b *Block) { t.Error("kernel ran for 0 blocks") })
	if dur <= 0 {
		t.Errorf("empty launch duration %v, want launch overhead > 0", dur)
	}
}

// TestLaunchMatchesBlocksRunInOrder checks the staging against its
// definition: the output and stats of running every block in index order
// and pushing its runs straight into its SM's ring. The reference stages
// nothing across blocks — each block's runs are replayed as soon as it
// returns — so a merge that reordered blocks, dropped a tape or leaked
// runs across launches shows up here at any worker count.
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
	var stats Stats
	for i, blocks := range sweepShapes {
		kernel := stressKernel(99 + int64(i))
		for idx := 0; idx < blocks; idx++ {
			b := &Block{Idx: idx, Out: &outbuf.Tape{}, dev: ref}
			kernel(b)
			b.Out.Replay(bufs[idx%cfg.NumSMs])
			stats.add(b.stats)
		}
	}
	for _, b := range bufs {
		b.Flush()
	}
	want := outbuf.Summarize(bufs)

	for _, par := range []int{0, 1, 3} {
		c := cfg
		c.HostParallelism = par
		dev, got := launchSweep(c, 99)
		if dev.OutputSummary() != want {
			t.Errorf("par=%d: output summary %+v, want %+v", par, dev.OutputSummary(), want)
		}
		st := dev.Stats()
		st.Launches, st.Blocks = 0, 0
		if st != stats {
			t.Errorf("par=%d: stats %+v, want %+v", par, st, stats)
		}
		if !reflect.DeepEqual(got, streams) {
			t.Errorf("par=%d: flush batch streams differ from the blocks run in order", par)
		}
	}
}
