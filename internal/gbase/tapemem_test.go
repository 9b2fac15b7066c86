//go:build !race

package gbase

import (
	"runtime"
	"testing"

	"skewjoin/internal/gpusim"
	"skewjoin/internal/outbuf"
)

// TestHostParallelTapeMemoryBoundedByBuild pins what a launch stages, on
// one worker and on two, when a consumer watches the stream: each block's tape
// holds one op per probing tuple that matched, each op retaining a run of
// the block's build table, so the join's allocations follow the build
// and probe sides, not the output. At zipf 1.0 the output is over 20
// results per input tuple; a tape that copied every match would allocate
// at least 4 bytes per result on top of everything else.
//
// Excluded from race-instrumented runs: the race runtime adds its own
// allocations.
func TestHostParallelTapeMemoryBoundedByBuild(t *testing.T) {
	r, s := workload(t, 1<<14, 1.0, 5)
	for _, par := range []int{0, 2} {
		var seen uint64
		cfg := Config{
			Device: gpusim.Config{HostParallelism: par},
			Flush: func(int) outbuf.FlushFunc {
				return func(batch []outbuf.Result) { seen += uint64(len(batch)) }
			},
		}
		Join(r, s, cfg) // warm up the pools and lazy set-up
		seen = 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Join(r, s, cfg)
		runtime.ReadMemStats(&after)
		if seen != res.Summary.Count {
			t.Fatalf("par=%d: consumer saw %d results, join reports %d", par, seen, res.Summary.Count)
		}
		if res.Summary.Count < 20*uint64(r.Len()) {
			t.Fatalf("%d results from %d tuples: too few for the bound to tell copies from retained runs",
				res.Summary.Count, r.Len())
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("par=%d: %d bytes for %d results (%.3f per result)", par, bytes, res.Summary.Count, float64(bytes)/float64(res.Summary.Count))
		if bytes >= 4*res.Summary.Count {
			t.Errorf("par=%d: join allocated %d bytes for %d results, want < %d (4 per result)",
				par, bytes, res.Summary.Count, 4*res.Summary.Count)
		}
	}
}
