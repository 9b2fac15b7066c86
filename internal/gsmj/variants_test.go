package gsmj

import (
	"fmt"
	"reflect"
	"testing"

	"skewjoin/internal/gpusim"
	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
)

// TestHostParallelismOutputInvariant is the golden variant sweep of the
// simulator's two emit paths, mirroring internal/cbase/variants_test.go.
// GSMJ's merge kernel emits equal-key runs from a per-block arena, so the
// sweep covers both skew extremes (uniform: many range merges; full skew:
// tiled giant runs) and demands that a run whose SMs feed a consumer
// match the consumer-less run bit for bit — summary, phases, launch trace
// and stats — with the consumer seeing every result. The name dates from
// when the sweep also varied the simulator's host worker count; it is
// kept so the test's id stays stable.
func TestHostParallelismOutputInvariant(t *testing.T) {
	for _, theta := range []float64{0, 1.0} {
		r, s := workload(t, 20000, theta, 37)
		want := oracle.Expected(r, s)
		dev := gpusim.Config{NumSMs: 16, SharedMemBytes: 4 << 10}
		base := Join(r, s, Config{Device: dev})
		var seen uint64
		res := Join(r, s, Config{Device: dev, Flush: func(int) outbuf.FlushFunc {
			return func(batch []outbuf.Result) { seen += uint64(len(batch)) }
		}})
		name := fmt.Sprintf("theta=%g", theta)
		if base.Summary != want || res.Summary != want {
			t.Fatalf("%s: summaries %+v without a consumer, %+v with one; oracle %+v", name, base.Summary, res.Summary, want)
		}
		if seen != want.Count {
			t.Errorf("%s: consumer saw %d of %d results", name, seen, want.Count)
		}
		if !reflect.DeepEqual(res.Phases, base.Phases) {
			t.Errorf("%s: phases differ with a consumer\ngot:  %+v\nwant: %+v", name, res.Phases, base.Phases)
		}
		if !reflect.DeepEqual(res.Trace, base.Trace) {
			t.Errorf("%s: launch trace differs with a consumer", name)
		}
		if res.Stats != base.Stats {
			t.Errorf("%s: stats differ with a consumer\ngot:  %+v\nwant: %+v", name, res.Stats, base.Stats)
		}
	}
}
