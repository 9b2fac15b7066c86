// Package gpusim is the GPU execution-and-cost simulator that substitutes
// for the NVIDIA A100 in the paper's testbed (see DESIGN.md §1).
//
// Kernels are ordinary Go functions invoked once per thread block. They do
// two things at once: compute the real join output (functional execution),
// and charge modelled cycles to their Block through the cost-accounting
// methods below. A kernel launch then schedules the blocks onto the
// simulated SM array (greedy earliest-free assignment, matching how a GPU
// dispatches blocks as SMs free up) and the launch's modelled time is the
// makespan over SMs. GPU-side "time" in every experiment is modelled
// cycles divided by the clock — deterministic and hardware-independent.
//
// The model captures exactly the effects the paper's GPU analysis relies
// on (§II-A, §III):
//
//   - load imbalance across SMs: a block with a giant skewed partition
//     occupies one SM while the rest idle — visible in the makespan;
//   - SIMT divergence: WarpLoop charges every warp the trip count of its
//     slowest lane, so variance in chain lengths inside a warp wastes
//     lanes;
//   - memory coalescing: sequential traffic is charged at bandwidth,
//     scattered and chain-dependent traffic per transaction;
//   - synchronisation: atomics and block-wide barriers carry explicit
//     charges (the write-bitmap cost of Gbase's probe loop).
//
// Simplifications (documented, deliberate): one resident block per SM at a
// time (block-level concurrency within an SM folds into the per-SM core
// count), and bandwidth is divided evenly among SMs.
package gpusim

import (
	"fmt"
	"sync/atomic"
	"time"

	"skewjoin/internal/outbuf"
	"skewjoin/internal/sanitize"
)

// Config describes the simulated device. The defaults model the paper's
// A100-PCIE-40GB.
type Config struct {
	NumSMs          int     // streaming multiprocessors (A100: 108)
	CoresPerSM      int     // CUDA cores per SM (A100: 64)
	WarpSize        int     // threads per warp (32)
	ThreadsPerBlock int     // default block size kernels assume
	SharedMemBytes  int     // usable shared memory per block
	ClockHz         float64 // SM clock
	GlobalBandwidth float64 // aggregate global-memory bandwidth, bytes/s

	// Cost constants, in cycles.
	RandomAccessCost    float64 // independent scattered global access (latency mostly hidden)
	DependentAccessCost float64 // pointer-chasing global access (latency exposed)
	SharedAccessCost    float64 // shared-memory access per warp op
	ComputeCost         float64 // generic ALU warp instruction
	AtomicCost          float64 // atomic operation (uncontended)
	BarrierCost         float64 // block-wide __syncthreads
	KernelLaunchCycles  float64 // fixed launch overhead

	// PCIeBandwidth is the host-to-device transfer bandwidth, bytes/s
	// (A100-PCIE: ~25 GB/s effective). Only used when a join is asked to
	// include the input transfer (the paper studies GPU-resident data,
	// §II-B, precisely because this link is so much slower than the
	// 1555 GB/s global memory).
	PCIeBandwidth float64
}

// A100 returns the configuration modelling the paper's GPU.
func A100() Config {
	return Config{
		NumSMs:              108,
		CoresPerSM:          64,
		WarpSize:            32,
		ThreadsPerBlock:     256,
		SharedMemBytes:      64 << 10,
		ClockHz:             1.41e9,
		GlobalBandwidth:     1555e9,
		RandomAccessCost:    40,
		DependentAccessCost: 220,
		SharedAccessCost:    2,
		ComputeCost:         1,
		AtomicCost:          8,
		BarrierCost:         24,
		KernelLaunchCycles:  2000,
		PCIeBandwidth:       25e9,
	}
}

// Coupled returns a configuration modelling an integrated (coupled
// CPU-GPU architecture) device: a handful of SMs clocked low, sharing
// memory bandwidth with the host and reached over a cheap on-die link
// rather than PCIe. It is the device class "Revisiting Co-Processing for
// Hash Joins on the Coupled CPU-GPU Architecture" studies, where the GPU
// is only a small multiple faster than the CPU cores — the regime in
// which splitting one join across both processors pays off. A discrete
// A100 outruns a single host core by orders of magnitude, so against
// A100() the split planner correctly degenerates to GPU-only.
//
// Zero-valued cost constants inherit the A100 per-operation costs via
// Defaults(); only the machine shape (SMs, cores, clock, bandwidth,
// link) differs.
func Coupled() Config {
	return Config{
		NumSMs:          2,
		CoresPerSM:      32,
		WarpSize:        32,
		ThreadsPerBlock: 128,
		SharedMemBytes:  64 << 10,
		ClockHz:         0.5e9,
		GlobalBandwidth: 16e9,
		PCIeBandwidth:   10e9, // shared-memory staging, not a PCIe bus
	}
}

// Defaults fills zero fields from A100().
func (c Config) Defaults() Config {
	a := A100()
	if c.NumSMs <= 0 {
		c.NumSMs = a.NumSMs
	}
	if c.CoresPerSM <= 0 {
		c.CoresPerSM = a.CoresPerSM
	}
	if c.WarpSize <= 0 {
		c.WarpSize = a.WarpSize
	}
	if c.ThreadsPerBlock <= 0 {
		c.ThreadsPerBlock = a.ThreadsPerBlock
	}
	if c.SharedMemBytes <= 0 {
		c.SharedMemBytes = a.SharedMemBytes
	}
	if c.ClockHz <= 0 {
		c.ClockHz = a.ClockHz
	}
	if c.GlobalBandwidth <= 0 {
		c.GlobalBandwidth = a.GlobalBandwidth
	}
	if c.RandomAccessCost <= 0 {
		c.RandomAccessCost = a.RandomAccessCost
	}
	if c.DependentAccessCost <= 0 {
		c.DependentAccessCost = a.DependentAccessCost
	}
	if c.SharedAccessCost <= 0 {
		c.SharedAccessCost = a.SharedAccessCost
	}
	if c.ComputeCost <= 0 {
		c.ComputeCost = a.ComputeCost
	}
	if c.AtomicCost <= 0 {
		c.AtomicCost = a.AtomicCost
	}
	if c.BarrierCost <= 0 {
		c.BarrierCost = a.BarrierCost
	}
	if c.KernelLaunchCycles <= 0 {
		c.KernelLaunchCycles = a.KernelLaunchCycles
	}
	if c.PCIeBandwidth <= 0 {
		c.PCIeBandwidth = a.PCIeBandwidth
	}
	return c
}

// bytesPerCyclePerSM is the fair-share global bandwidth of one SM.
func (c Config) bytesPerCyclePerSM() float64 {
	return c.GlobalBandwidth / c.ClockHz / float64(c.NumSMs)
}

// concurrentWarps is how many warps an SM executes simultaneously.
func (c Config) concurrentWarps() float64 {
	w := float64(c.CoresPerSM) / float64(c.WarpSize)
	if w < 1 {
		return 1
	}
	return w
}

// Stats aggregates modelled activity across all launches of a device.
type Stats struct {
	Launches         int
	Blocks           int
	GlobalBytes      uint64 // coalesced traffic
	RandomAccesses   uint64
	DependentSteps   uint64
	Atomics          uint64
	Barriers         uint64
	WarpIterations   uint64 // executed warp-loop iterations (after divergence)
	LaneIterations   uint64 // useful per-lane iterations
	DivergenceWasted uint64 // lane-slots lost to divergence
}

// LaunchRecord describes one kernel launch for breakdowns and tests.
type LaunchRecord struct {
	Name       string
	Blocks     int
	Cycles     float64 // makespan over SMs, incl. launch overhead
	MaxBlock   float64 // heaviest single block, cycles
	SumBlocks  float64 // total block cycles (work)
	Duration   time.Duration
	Imbalance  float64 // makespan / ideal (work / SMs): 1.0 = perfectly balanced
	PhaseLabel string  // phase this launch is accounted under
}

// Device is one simulated GPU. A Device accumulates modelled time, output
// summaries and stats across kernel launches; use one Device per join run.
// Not safe for concurrent launches: overlapping Launch, Serialize or
// Transfer calls corrupt the accumulated state, and under the `sanitize`
// build tag they are detected and abort with a diagnostic panic.
type Device struct {
	cfg     Config
	records []LaunchRecord
	stats   Stats
	bufs    []*outbuf.Buffer // one per SM; block i emits to bufs[i%NumSMs]
	tapes   []*outbuf.Tape   // tapes[sm] writes to bufs[sm]: the Block.Out of its blocks
	cycles  float64

	smScratch []float64    // schedule()'s per-SM min-heap, reused across launches
	block     Block        // the kernels' handle, reused across blocks and launches
	busy      atomic.Int32 // sanitize-only overlapping-call detector
}

// enter flags the device busy for one accounting call. Under the sanitize
// build tag an overlapping call — two goroutines sharing one Device —
// aborts loudly instead of silently corrupting records, stats and output
// rings. Without the tag the check compiles away.
func (d *Device) enter(api string) {
	if sanitize.Enabled {
		if !d.busy.CompareAndSwap(0, 1) {
			sanitize.Failf("gpusim: concurrent %s on one Device (a Device is single-owner; give each goroutine its own Device)", api)
		}
	}
}

// leave clears the busy flag set by enter.
func (d *Device) leave() {
	if sanitize.Enabled {
		d.busy.Store(0)
	}
}

// NewDevice returns a device with the given configuration (zero fields are
// filled with A100 values).
func NewDevice(cfg Config) *Device {
	cfg = cfg.Defaults()
	d := &Device{cfg: cfg}
	d.bufs = make([]*outbuf.Buffer, cfg.NumSMs)
	d.tapes = make([]*outbuf.Tape, cfg.NumSMs)
	for i := range d.bufs {
		d.bufs[i] = outbuf.New(0)
		d.tapes[i] = outbuf.NewTape(d.bufs[i])
	}
	d.smScratch = make([]float64, cfg.NumSMs)
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// PartitionCapacityTuples is the number of 8-byte tuples of one partition
// that fit in shared memory together with its chained hash table (heads +
// next links, 8 bytes per tuple with load factor 1).
func (d *Device) PartitionCapacityTuples() int {
	return d.cfg.SharedMemBytes / 16
}

// Block is the kernel-side handle: identity plus cost accounting plus the
// output destination, the tape of the block's SM (Idx % NumSMs), which
// writes each run to that SM's buffer as the kernel pushes it. A Block is
// only valid for the duration of the kernel call; kernels must not retain
// it.
type Block struct {
	Idx    int
	Out    *outbuf.Tape
	dev    *Device
	cycles float64
}

// Launch runs kernel once per block, schedules the blocks greedily over
// the SM array, accounts the launch under phase, and returns the modelled
// launch duration. Modelled cycles are whatever the blocks charged.
//
// The blocks run one after another on the calling goroutine, in index
// order, each charging the device's Stats and emitting to its SM's
// output as it runs, so a consumer sees the runs in block order. The
// modelled makespan does not depend on that order: it is a function of
// the per-block cycles alone (see scheduleInto). As on a GPU, blocks must
// not depend on one another: kernels confine functional side effects to
// the Block (cost methods, Out) and per-block state — e.g. write to slot
// Idx of a results slice.
func (d *Device) Launch(phase, name string, blocks int, kernel func(b *Block)) time.Duration {
	d.enter("Launch")
	defer d.leave()
	cfg := d.cfg
	cycles := make([]float64, blocks)
	b := &d.block
	*b = Block{dev: d}
	for i := range cycles {
		b.Idx = i
		b.Out = d.tapes[i%len(d.tapes)]
		b.cycles = 0
		kernel(b)
		cycles[i] = b.cycles
	}
	var sum, maxb float64
	for _, c := range cycles {
		sum += c
		if c > maxb {
			maxb = c
		}
	}

	makespan := scheduleInto(d.smScratch, cycles) + cfg.KernelLaunchCycles
	ideal := sum/float64(cfg.NumSMs) + cfg.KernelLaunchCycles
	imb := 1.0
	if ideal > 0 {
		imb = makespan / ideal
	}
	dur := time.Duration(makespan / cfg.ClockHz * float64(time.Second))
	d.cycles += makespan
	d.stats.Launches++
	d.stats.Blocks += blocks
	d.records = append(d.records, LaunchRecord{
		Name: name, Blocks: blocks, Cycles: makespan, MaxBlock: maxb,
		SumBlocks: sum, Duration: dur, Imbalance: imb, PhaseLabel: phase,
	})
	return dur
}

// schedule assigns block cycle costs to SMs in launch order, each to the
// earliest-free SM, and returns the makespan.
func schedule(cycles []float64, sms int) float64 {
	return scheduleInto(make([]float64, sms), cycles)
}

// scheduleInto is schedule with a caller-provided per-SM scratch heap
// (one slot per SM, overwritten), so the per-launch hot path allocates
// nothing. The scratch is kept as a binary min-heap on finish time: each
// block lands on the root (the earliest-free SM) and one sift-down
// restores the heap — no container/heap interface boxing, no Fix
// indirection. Ties between equally loaded SMs may resolve differently
// than another heap implementation would, but the resulting multiset of
// SM finish times (and hence the makespan) is identical: adding a block
// to either of two bitwise-equal loads produces the same multiset.
func scheduleInto(sm []float64, cycles []float64) float64 {
	if len(cycles) == 0 {
		return 0
	}
	for i := range sm {
		sm[i] = 0
	}
	for _, c := range cycles {
		sm[0] += c
		siftDown(sm)
	}
	var makespan float64
	for _, t := range sm {
		if t > makespan {
			makespan = t
		}
	}
	return makespan
}

// siftDown restores the min-heap property of sm after the root grew.
func siftDown(sm []float64) {
	i := 0
	for {
		l := 2*i + 1
		small := i
		if l < len(sm) && sm[l] < sm[small] {
			small = l
		}
		if r := l + 1; r < len(sm) && sm[r] < sm[small] {
			small = r
		}
		if small == i {
			return
		}
		sm[i], sm[small] = sm[small], sm[i]
		i = small
	}
}

// Serialize accounts a device-wide serialisation: work that cannot overlap
// across SMs, such as atomics contending on a single address (every block
// appending to the same array cursor). The cycles are added to the
// makespan directly and recorded like a launch.
func (d *Device) Serialize(phase, name string, cycles float64) time.Duration {
	d.enter("Serialize")
	defer d.leave()
	return d.serialize(phase, name, cycles)
}

// serialize is Serialize without the overlap guard, for internal reuse by
// guarded entry points (Transfer wraps it so the guard is not re-entered).
func (d *Device) serialize(phase, name string, cycles float64) time.Duration {
	if cycles <= 0 {
		return 0
	}
	dur := time.Duration(cycles / d.cfg.ClockHz * float64(time.Second))
	d.cycles += cycles
	d.records = append(d.records, LaunchRecord{
		Name: name, Cycles: cycles, MaxBlock: cycles, SumBlocks: cycles,
		Duration: dur, Imbalance: float64(d.cfg.NumSMs), PhaseLabel: phase,
	})
	return dur
}

// Transfer accounts a host-to-device (or device-to-host) copy of the given
// size over the PCIe link, recorded under the given phase. Transfers do
// not overlap with kernels in this model.
func (d *Device) Transfer(phase, name string, bytes int) time.Duration {
	d.enter("Transfer")
	defer d.leave()
	if bytes <= 0 {
		return 0
	}
	cycles := float64(bytes) / d.cfg.PCIeBandwidth * d.cfg.ClockHz
	return d.serialize(phase, name, cycles)
}

// Elapsed returns the total modelled time across all launches so far.
func (d *Device) Elapsed() time.Duration {
	return time.Duration(d.cycles / d.cfg.ClockHz * float64(time.Second))
}

// PhaseTime sums the modelled durations of all launches accounted under
// the given phase label.
func (d *Device) PhaseTime(phase string) time.Duration {
	var sum time.Duration
	for _, r := range d.records {
		if r.PhaseLabel == phase {
			sum += r.Duration
		}
	}
	return sum
}

// Phases returns the distinct phase labels in first-use order with their
// summed durations.
func (d *Device) Phases() []LaunchRecord {
	var order []string
	sums := map[string]time.Duration{}
	for _, r := range d.records {
		if _, ok := sums[r.PhaseLabel]; !ok {
			order = append(order, r.PhaseLabel)
		}
		sums[r.PhaseLabel] += r.Duration
	}
	out := make([]LaunchRecord, 0, len(order))
	for _, p := range order {
		out = append(out, LaunchRecord{Name: p, PhaseLabel: p, Duration: sums[p]})
	}
	return out
}

// Records returns every launch record in order.
func (d *Device) Records() []LaunchRecord { return d.records }

// Stats returns the accumulated device statistics.
func (d *Device) Stats() Stats { return d.stats }

// OutputSummary merges the per-SM output buffers into one run summary.
func (d *Device) OutputSummary() outbuf.Summary { return outbuf.Summarize(d.bufs) }

// SetFlush installs a per-SM batch consumer on every output buffer (the
// volcano-style upper operator). Call before any kernel launch.
func (d *Device) SetFlush(fn func(sm int) outbuf.FlushFunc) {
	for i := range d.bufs {
		d.bufs[i].SetFlush(fn(i))
	}
}

// FlushOutputs hands the final partial batches to the installed consumers.
// Call once after the last kernel launch.
func (d *Device) FlushOutputs() {
	for _, b := range d.bufs {
		b.Flush()
	}
}

// ---- Block cost-accounting methods ----

// GlobalCoalesced charges a fully coalesced global-memory transfer of n
// bytes at the SM's bandwidth share.
func (b *Block) GlobalCoalesced(bytes int) {
	if bytes <= 0 {
		return
	}
	b.cycles += float64(bytes) / b.dev.cfg.bytesPerCyclePerSM()
	b.dev.stats.GlobalBytes += uint64(bytes)
}

// GlobalRandom charges n independent scattered global accesses (latency
// mostly hidden by warp interleaving, but one transaction each).
func (b *Block) GlobalRandom(n int) {
	if n <= 0 {
		return
	}
	b.cycles += float64(n) * b.dev.cfg.RandomAccessCost / b.dev.cfg.concurrentWarps()
	b.dev.stats.RandomAccesses += uint64(n)
}

// GlobalDependent charges n pointer-chasing global accesses where each
// access depends on the previous one, so latency cannot be hidden. This is
// the cost of walking a chained hash table that lives in global memory.
func (b *Block) GlobalDependent(n int) {
	if n <= 0 {
		return
	}
	b.cycles += float64(n) * b.dev.cfg.DependentAccessCost
	b.dev.stats.DependentSteps += uint64(n)
}

// Shared charges n shared-memory warp operations.
func (b *Block) Shared(n int) {
	if n <= 0 {
		return
	}
	b.cycles += float64(n) * b.dev.cfg.SharedAccessCost / b.dev.cfg.concurrentWarps()
}

// Compute charges n generic ALU warp instructions.
func (b *Block) Compute(n int) {
	if n <= 0 {
		return
	}
	b.cycles += float64(n) * b.dev.cfg.ComputeCost / b.dev.cfg.concurrentWarps()
}

// Atomic charges n atomic operations.
func (b *Block) Atomic(n int) {
	if n <= 0 {
		return
	}
	b.cycles += float64(n) * b.dev.cfg.AtomicCost
	b.dev.stats.Atomics += uint64(n)
}

// Barrier charges n block-wide __syncthreads barriers.
func (b *Block) Barrier(n int) {
	if n <= 0 {
		return
	}
	b.cycles += float64(n) * b.dev.cfg.BarrierCost
	b.dev.stats.Barriers += uint64(n)
}

// UniformWork charges processing of n items where every item costs perItem
// cycles and items are spread evenly over the block's threads: no
// divergence, warps fully occupied.
func (b *Block) UniformWork(n int, perItem float64) {
	if n <= 0 {
		return
	}
	warps := (n + b.dev.cfg.WarpSize - 1) / b.dev.cfg.WarpSize
	b.cycles += float64(warps) * perItem / b.dev.cfg.concurrentWarps()
	b.dev.stats.WarpIterations += uint64(warps)
	b.dev.stats.LaneIterations += uint64(n)
}

// WarpLoop charges a SIMT loop with per-lane trip counts: lane i of the
// launch-order thread assignment executes trips[i] iterations. Lanes are
// grouped into warps of WarpSize; each warp is charged the trip count of
// its slowest lane times perIter cycles — the divergence cost model. The
// method returns the number of warp iterations actually executed.
func (b *Block) WarpLoop(trips []int, perIter float64) int {
	cfg := b.dev.cfg
	ws := cfg.WarpSize
	var warpIters, laneIters int
	for lo := 0; lo < len(trips); lo += ws {
		hi := lo + ws
		if hi > len(trips) {
			hi = len(trips)
		}
		max := 0
		for _, t := range trips[lo:hi] {
			laneIters += t
			if t > max {
				max = t
			}
		}
		warpIters += max
	}
	b.cycles += float64(warpIters) * perIter / cfg.concurrentWarps()
	b.dev.stats.WarpIterations += uint64(warpIters)
	b.dev.stats.LaneIterations += uint64(laneIters)
	// Wasted lane-slots: full-warp groups only (a ragged tail is occupancy,
	// not divergence).
	for lo := 0; lo+ws <= len(trips); lo += ws {
		max := 0
		sum := 0
		for _, t := range trips[lo : lo+ws] {
			sum += t
			if t > max {
				max = t
			}
		}
		b.dev.stats.DivergenceWasted += uint64(max*ws - sum)
	}
	return warpIters
}

// Cycles returns the cycles charged to this block so far.
func (b *Block) Cycles() float64 { return b.cycles }

// Device returns the device the block runs on.
func (b *Block) Device() *Device { return b.dev }

// String implements fmt.Stringer for debugging.
func (b *Block) String() string {
	return fmt.Sprintf("block %d (%.0f cycles)", b.Idx, b.cycles)
}
