package gsh

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
// GSH emits from the most kernels of the GPU joins — the NM-join's probe
// runs and the skew join's tiles — so a run whose SMs feed a consumer
// must reproduce the consumer-less run bit for bit: summary, per-phase
// modelled times, launch trace and stats, with the consumer seeing every
// result. Both the regular post-partition design and the DetectBefore
// ablation are swept. The name dates from when the sweep also varied the
// simulator's host worker count; it is kept so the test's id stays
// stable.
func TestHostParallelismOutputInvariant(t *testing.T) {
	for _, theta := range []float64{0, 0.8} {
		for _, detectBefore := range []bool{false, true} {
			r, s := workload(t, 20000, theta, 33)
			want := oracle.Expected(r, s)
			cfg := Config{
				Device:       gpusim.Config{NumSMs: 16, SharedMemBytes: 4 << 10},
				DetectBefore: detectBefore,
			}
			base := Join(r, s, cfg)
			var seen uint64
			cfg.Flush = func(int) outbuf.FlushFunc {
				return func(batch []outbuf.Result) { seen += uint64(len(batch)) }
			}
			res := Join(r, s, cfg)
			name := fmt.Sprintf("theta=%g/detectbefore=%v", theta, detectBefore)
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
}
