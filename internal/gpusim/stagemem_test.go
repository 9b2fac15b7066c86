//go:build !race

package gpusim

import (
	"runtime"
	"testing"

	"skewjoin/internal/relation"
)

// TestLaunchStagingMemoryPinned pins what a launch stages when no
// consumer watches its output: the workers fold stats, counts and
// checksums as the blocks run, so the launch allocates its per-block
// cycles slice (8 bytes a block) and a fixed amount besides, however many
// blocks emit. The runs share one read-only payload slice, so every byte
// the launch allocates is staging.
//
// Excluded from race-instrumented runs: the race runtime adds its own
// allocations.
func TestLaunchStagingMemoryPinned(t *testing.T) {
	const blocks = 1 << 16
	payloads := []relation.Payload{1, 2, 3, 4}
	kernel := func(b *Block) {
		b.Compute(4)
		b.Out.PushRun(relation.Key(b.Idx), payloads, relation.Payload(b.Idx))
	}
	for _, par := range []int{0, 2} {
		dev := NewDevice(Config{NumSMs: 8, HostParallelism: par})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dev.Launch("p", "stage-mem", blocks, kernel)
		runtime.ReadMemStats(&after)
		if got := dev.OutputSummary().Count; got != blocks*uint64(len(payloads)) {
			t.Fatalf("par=%d: %d results, want %d", par, got, blocks*len(payloads))
		}
		perBlock := float64(after.TotalAlloc-before.TotalAlloc) / blocks
		t.Logf("par=%d: %.2f bytes per block", par, perBlock)
		if perBlock > 16 {
			t.Errorf("par=%d: launch allocated %.2f bytes per block, want <= 16 (the cycles slice plus slack)", par, perBlock)
		}
	}
}
