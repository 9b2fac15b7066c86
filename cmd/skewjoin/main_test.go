package main

import (
	"testing"

	"skewjoin"
)

// TestRunWithTraceUsesDevice checks that -gputrace models the device the
// flags chose: on the coupled profile, the traced Gbase, GSH and GSMJ
// runs report the same modelled total and output as skewjoin.Join on that
// device, and a different total from the A100's.
func TestRunWithTraceUsesDevice(t *testing.T) {
	r, s, err := skewjoin.GenerateZipfPair(16384, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	coupled := skewjoin.CoupledDevice()
	for _, alg := range []skewjoin.Algorithm{skewjoin.Gbase, skewjoin.GSH, skewjoin.GSMJ} {
		trc, traced := runWithTrace(alg, r, s, coupled)
		if len(trc) == 0 {
			t.Errorf("%s: no launch records", alg)
		}
		want, err := skewjoin.Join(alg, r, s, &skewjoin.Options{Device: coupled})
		if err != nil {
			t.Fatal(err)
		}
		a100, err := skewjoin.Join(alg, r, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if traced.Total != want.Total || traced.Summary() != want.Summary() {
			t.Errorf("%s: traced run %v %+v, Join on the coupled device %v %+v",
				alg, traced.Total, traced.Summary(), want.Total, want.Summary())
		}
		if traced.Total == a100.Total {
			t.Errorf("%s: traced run on the coupled device reads the A100's %v", alg, a100.Total)
		}
	}
}
