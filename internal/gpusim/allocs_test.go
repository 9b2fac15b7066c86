//go:build !race

package gpusim

import "testing"

// TestLaunchAllocsPinned pins the steady-state allocation count of a
// one-worker launch. The slice min-heap behind schedule() must not
// allocate (the old container/heap boxed every float into an
// interface{}), the worker's reused Block handle and tapes must not be
// re-allocated per launch, and cost charging must be allocation-free — so
// a whole launch is down to the per-launch cycles slice plus the
// amortised records append.
//
// Excluded from race-instrumented runs: the race runtime adds its own
// allocations and would turn the pin into noise.
func TestLaunchAllocsPinned(t *testing.T) {
	dev := NewDevice(Config{NumSMs: 8, SharedMemBytes: 4 << 10})
	visits := []int{3, 1, 4, 1, 5}
	kernel := func(b *Block) {
		b.GlobalCoalesced(1024)
		b.GlobalRandom(16)
		b.Shared(64)
		b.Compute(32)
		b.Atomic(8)
		b.Barrier(2)
		b.UniformWork(100, 2)
		b.WarpLoop(visits, 4)
	}
	// Warm up the records slice capacity so appends amortise.
	for i := 0; i < 64; i++ {
		dev.Launch("warm", "alloc-warm", 64, kernel)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dev.Launch("steady", "alloc-steady", 64, kernel)
	})
	// One alloc for the per-launch cycles slice; leave headroom for the
	// amortised records growth. The boxed heap alone cost ~64 here.
	if allocs > 4 {
		t.Errorf("Launch allocated %.1f times per run, want <= 4", allocs)
	}
}
