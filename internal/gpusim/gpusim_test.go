package gpusim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

func TestDefaultsFillA100(t *testing.T) {
	cfg := Config{}.Defaults()
	a := A100()
	if cfg != a {
		t.Errorf("empty config defaults %+v != A100 %+v", cfg, a)
	}
	// Partial overrides are preserved.
	cfg = Config{NumSMs: 4, SharedMemBytes: 1 << 10}.Defaults()
	if cfg.NumSMs != 4 || cfg.SharedMemBytes != 1<<10 {
		t.Errorf("overrides lost: %+v", cfg)
	}
	if cfg.WarpSize != a.WarpSize {
		t.Errorf("unset field not defaulted: %+v", cfg)
	}
}

func TestPartitionCapacity(t *testing.T) {
	d := NewDevice(Config{SharedMemBytes: 64 << 10})
	if got := d.PartitionCapacityTuples(); got != 4096 {
		t.Errorf("capacity = %d, want 4096", got)
	}
}

func TestScheduleBalanced(t *testing.T) {
	// 100 equal blocks over 10 SMs: makespan = 10 blocks' worth.
	cycles := make([]float64, 100)
	for i := range cycles {
		cycles[i] = 7
	}
	if got := schedule(cycles, 10); got != 70 {
		t.Errorf("makespan = %g, want 70", got)
	}
}

func TestScheduleDominatedByGiantBlock(t *testing.T) {
	// One giant block dominates regardless of SM count — the skew effect.
	cycles := []float64{1000, 1, 1, 1, 1, 1}
	if got := schedule(cycles, 4); got < 1000 {
		t.Errorf("makespan = %g, want >= 1000", got)
	}
}

func TestScheduleEmpty(t *testing.T) {
	if got := schedule(nil, 8); got != 0 {
		t.Errorf("empty launch makespan = %g", got)
	}
	// A zero-block launch runs no kernel and still pays the launch
	// overhead.
	dev := NewDevice(Config{NumSMs: 4})
	if dur := dev.Launch("p", "empty", 0, func(*Block) { t.Error("kernel ran for 0 blocks") }); dur <= 0 {
		t.Errorf("empty launch duration %v, want the launch overhead", dur)
	}
}

func TestQuickScheduleBounds(t *testing.T) {
	// Makespan is between max(block) and sum(blocks); with the greedy
	// heuristic it is also at most sum/sms + max.
	f := func(raw []uint16, smsRaw uint8) bool {
		sms := int(smsRaw%16) + 1
		cycles := make([]float64, len(raw))
		var sum, max float64
		for i, r := range raw {
			cycles[i] = float64(r)
			sum += cycles[i]
			if cycles[i] > max {
				max = cycles[i]
			}
		}
		got := schedule(cycles, sms)
		if got < max-1e-9 || got > sum+1e-9 {
			return false
		}
		return got <= sum/float64(sms)+max+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLaunchAccountsMakespanNotSum(t *testing.T) {
	d := NewDevice(Config{NumSMs: 8})
	d.Launch("p", "k", 8, func(b *Block) { b.Compute(1000) })
	rec := d.Records()[0]
	// 8 equal blocks on 8 SMs: makespan ≈ one block + launch overhead.
	perBlock := rec.SumBlocks / 8
	if rec.Cycles > perBlock+d.Config().KernelLaunchCycles+1 {
		t.Errorf("makespan %g should be ~one block (%g) + overhead", rec.Cycles, perBlock)
	}
	if math.Abs(rec.Imbalance-1) > 0.01 {
		t.Errorf("balanced launch imbalance = %g", rec.Imbalance)
	}
}

func TestLaunchImbalanceVisible(t *testing.T) {
	d := NewDevice(Config{NumSMs: 8})
	d.Launch("p", "k", 8, func(b *Block) {
		if b.Idx == 0 {
			b.Compute(100000)
		} else {
			b.Compute(10)
		}
	})
	if imb := d.Records()[0].Imbalance; imb < 3 {
		t.Errorf("skewed launch imbalance = %g, want >> 1", imb)
	}
}

func TestPhaseAccounting(t *testing.T) {
	d := NewDevice(Config{})
	d.Launch("alpha", "k1", 1, func(b *Block) { b.Compute(1e6) })
	d.Launch("beta", "k2", 1, func(b *Block) { b.Compute(2e6) })
	d.Launch("alpha", "k3", 1, func(b *Block) { b.Compute(3e6) })
	if d.PhaseTime("alpha") <= d.PhaseTime("beta") {
		t.Errorf("alpha %v should exceed beta %v", d.PhaseTime("alpha"), d.PhaseTime("beta"))
	}
	phases := d.Phases()
	if len(phases) != 2 || phases[0].PhaseLabel != "alpha" || phases[1].PhaseLabel != "beta" {
		t.Errorf("phases = %+v", phases)
	}
	var sum time.Duration
	for _, p := range phases {
		sum += p.Duration
	}
	if d.Elapsed() < sum-3*time.Nanosecond || d.Elapsed() > sum+3*time.Nanosecond {
		t.Errorf("Elapsed %v != phase sum %v", d.Elapsed(), sum)
	}
}

func TestGlobalCoalescedBandwidth(t *testing.T) {
	cfg := Config{NumSMs: 1, GlobalBandwidth: 1000e9, ClockHz: 1e9}.Defaults()
	d := NewDevice(cfg)
	d.Launch("p", "k", 1, func(b *Block) {
		b.GlobalCoalesced(1000) // 1000 bytes at 1000 B/cycle for 1 SM
	})
	rec := d.Records()[0]
	want := 1.0 + cfg.KernelLaunchCycles
	if math.Abs(rec.Cycles-want) > 0.01 {
		t.Errorf("cycles = %g, want %g", rec.Cycles, want)
	}
}

func TestCostMethodsAccumulateStats(t *testing.T) {
	d := NewDevice(Config{})
	d.Launch("p", "k", 1, func(b *Block) {
		b.GlobalCoalesced(128)
		b.GlobalRandom(5)
		b.GlobalDependent(7)
		b.Atomic(3)
		b.Barrier(2)
		b.Shared(4)
		b.Compute(6)
		b.UniformWork(64, 1)
	})
	st := d.Stats()
	if st.GlobalBytes != 128 || st.RandomAccesses != 5 || st.DependentSteps != 7 ||
		st.Atomics != 3 || st.Barriers != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.LaneIterations != 64 {
		t.Errorf("lane iterations = %d", st.LaneIterations)
	}
}

func TestZeroCostCallsAreFree(t *testing.T) {
	d := NewDevice(Config{})
	d.Launch("p", "k", 1, func(b *Block) {
		b.GlobalCoalesced(0)
		b.GlobalRandom(0)
		b.GlobalDependent(-1)
		b.Atomic(0)
		b.Barrier(0)
		b.Shared(0)
		b.Compute(0)
		b.UniformWork(0, 5)
		if b.Cycles() != 0 {
			t.Errorf("zero-cost calls charged %g cycles", b.Cycles())
		}
	})
}

func TestWarpLoopDivergence(t *testing.T) {
	d := NewDevice(Config{WarpSize: 4, CoresPerSM: 4})
	d.Launch("p", "k", 1, func(b *Block) {
		// Two warps of 4 lanes: maxes 10 and 8.
		iters := b.WarpLoop([]int{10, 1, 1, 1, 8, 8, 8, 8}, 1)
		if iters != 18 {
			t.Errorf("warp iterations = %d, want 18", iters)
		}
	})
	st := d.Stats()
	if st.LaneIterations != 10+3+4*8 {
		t.Errorf("lane iterations = %d", st.LaneIterations)
	}
	// Waste: warp 1 wastes 10*4-13 = 27, warp 2 wastes 0.
	if st.DivergenceWasted != 27 {
		t.Errorf("divergence waste = %d, want 27", st.DivergenceWasted)
	}
}

func TestWarpLoopRaggedTailNotWaste(t *testing.T) {
	d := NewDevice(Config{WarpSize: 32})
	d.Launch("p", "k", 1, func(b *Block) {
		b.WarpLoop([]int{5, 3}, 1) // partial warp
	})
	if w := d.Stats().DivergenceWasted; w != 0 {
		t.Errorf("partial warp counted as divergence waste: %d", w)
	}
}

func TestOutputBuffersSharedPerSM(t *testing.T) {
	d := NewDevice(Config{NumSMs: 2})
	d.Launch("p", "k", 4, func(b *Block) {
		b.Out.PushRun(1, []relation.Payload{2}, 3, 2)
	})
	sum := d.OutputSummary()
	if sum.Count != 4 {
		t.Errorf("output count = %d, want 4", sum.Count)
	}
}

func TestSerializeAddsMakespanDirectly(t *testing.T) {
	d := NewDevice(Config{ClockHz: 1e9})
	before := d.Elapsed()
	dur := d.Serialize("p", "contended-atomics", 1e6)
	if got := d.Elapsed() - before; got != dur {
		t.Errorf("Elapsed grew by %v, Serialize returned %v", got, dur)
	}
	if dur != time.Millisecond {
		t.Errorf("1e6 cycles at 1GHz = %v, want 1ms", dur)
	}
	if d.PhaseTime("p") != dur {
		t.Errorf("phase time %v, want %v", d.PhaseTime("p"), dur)
	}
	if d.Serialize("p", "nothing", 0) != 0 {
		t.Error("zero-cycle Serialize charged time")
	}
}

func TestTransferChargesPCIeTime(t *testing.T) {
	d := NewDevice(Config{PCIeBandwidth: 1e9, ClockHz: 1e9})
	dur := d.Transfer("transfer", "h2d", 1000) // 1000 B at 1 GB/s = 1µs
	if dur != time.Microsecond {
		t.Errorf("transfer = %v, want 1µs", dur)
	}
	if d.PhaseTime("transfer") != dur {
		t.Errorf("phase time %v", d.PhaseTime("transfer"))
	}
	if d.Transfer("transfer", "none", 0) != 0 {
		t.Error("zero-byte transfer charged time")
	}
}

func TestSetFlushAndFlushOutputs(t *testing.T) {
	d := NewDevice(Config{NumSMs: 2})
	got := make([]int, 2)
	d.SetFlush(func(sm int) outbuf.FlushFunc {
		return func(batch []outbuf.Result) { got[sm] += len(batch) }
	})
	d.Launch("p", "k", 2, func(b *Block) {
		b.Out.PushRun(1, []relation.Payload{2}, 3, 2)
	})
	d.FlushOutputs()
	if got[0]+got[1] != 2 {
		t.Errorf("consumers saw %d results, want 2", got[0]+got[1])
	}
}

func TestElapsedMonotone(t *testing.T) {
	d := NewDevice(Config{})
	prev := d.Elapsed()
	for i := 0; i < 3; i++ {
		d.Launch("p", "k", 2, func(b *Block) { b.Compute(1000) })
		if now := d.Elapsed(); now <= prev {
			t.Fatalf("Elapsed not monotone: %v then %v", prev, now)
		} else {
			prev = now
		}
	}
}
