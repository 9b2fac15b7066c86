package gbase

import (
	"fmt"
	"reflect"
	"testing"

	"skewjoin/internal/gpusim"
	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
)

// TestHostParallelismOutputInvariant is the golden variant sweep of the
// simulator's two emit paths, mirroring internal/cbase/variants_test.go:
// a run whose SMs feed a consumer pushes every result through their
// rings, a run without one only folds each run into the summaries, and
// the two must agree bit for bit — summary, per-phase modelled times,
// launch trace (float cycles included) and simulator stats — with the
// consumer seeing every result. The name dates from when the sweep also
// varied the simulator's host worker count; it is kept so the test's id
// stays stable.
func TestHostParallelismOutputInvariant(t *testing.T) {
	for _, theta := range []float64{0, 0.8} {
		r, s := workload(t, 20000, theta, 31)
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
