//go:build !race

package gbase

import (
	"runtime"
	"testing"

	"skewjoin/internal/outbuf"
)

// TestHostParallelTapeMemoryBoundedByBuild pins what a join allocates when a
// consumer watches the stream: each block pushes its runs, slices of its
// build table, straight into its SM's ring, so the join's allocations
// follow the build and probe sides, not the output. At zipf 1.0 the
// output is over 20 results per input tuple; an emit path that copied
// every match would allocate at least 4 bytes per result on top of
// everything else. The name dates from when this path staged runs on
// per-worker tapes; it is kept so the test's id stays stable.
//
// Excluded from race-instrumented runs: the race runtime adds its own
// allocations.
func TestHostParallelTapeMemoryBoundedByBuild(t *testing.T) {
	r, s := workload(t, 1<<14, 1.0, 5)
	var seen uint64
	cfg := Config{
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
		t.Fatalf("consumer saw %d results, join reports %d", seen, res.Summary.Count)
	}
	if res.Summary.Count < 20*uint64(r.Len()) {
		t.Fatalf("%d results from %d tuples: too few for the bound to tell copies from direct pushes",
			res.Summary.Count, r.Len())
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes for %d results (%.3f per result)", bytes, res.Summary.Count, float64(bytes)/float64(res.Summary.Count))
	if bytes >= 4*res.Summary.Count {
		t.Errorf("join allocated %d bytes for %d results, want < %d (4 per result)",
			bytes, res.Summary.Count, 4*res.Summary.Count)
	}
}
