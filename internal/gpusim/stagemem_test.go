//go:build !race

package gpusim

import (
	"runtime"
	"testing"

	"skewjoin/internal/relation"
)

// TestLaunchStagingMemoryPinned pins what a launch allocates when no
// consumer watches its output: the blocks charge the device's stats and
// fold their runs into their SMs' counts and checksums as they run, so
// the launch allocates its per-block cycles slice (8 bytes a block) and a
// fixed amount besides, however many blocks emit. The runs share one
// read-only payload slice, so every byte the launch allocates is its own.
//
// Excluded from race-instrumented runs: the race runtime adds its own
// allocations.
func TestLaunchStagingMemoryPinned(t *testing.T) {
	const blocks = 1 << 16
	payloads := []relation.Payload{1, 2, 3, 4}
	kernel := func(b *Block) {
		b.Compute(4)
		b.Out.PushRun(relation.Key(b.Idx), payloads, relation.Payload(b.Idx), 10)
	}
	dev := NewDevice(Config{NumSMs: 8})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dev.Launch("p", "stage-mem", blocks, kernel)
	runtime.ReadMemStats(&after)
	if got := dev.OutputSummary().Count; got != blocks*uint64(len(payloads)) {
		t.Fatalf("%d results, want %d", got, blocks*len(payloads))
	}
	perBlock := float64(after.TotalAlloc-before.TotalAlloc) / blocks
	t.Logf("%.2f bytes per block", perBlock)
	if perBlock > 16 {
		t.Errorf("launch allocated %.2f bytes per block, want <= 16 (the cycles slice plus slack)", perBlock)
	}
}
