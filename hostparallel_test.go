package skewjoin

import "testing"

// TestOptionsHostParallelism sweeps Options.Device.HostParallelism over
// every GPU algorithm: any pool size — including a negative value, which
// means serial like 0, and a pool far larger than the host — must
// reproduce the serial result exactly, both the output summary and the
// modelled phase times.
func TestOptionsHostParallelism(t *testing.T) {
	r, s, err := GenerateZipfPair(1<<14, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := Expected(r, s)
	dev := DeviceConfig{NumSMs: 16, SharedMemBytes: 4 << 10}
	for _, alg := range []Algorithm{Gbase, GSH, GSMJ} {
		serial, err := Join(alg, r, s, &Options{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		if serial.Summary() != want {
			t.Fatalf("%s serial: summary %+v, oracle %+v", alg, serial.Summary(), want)
		}
		for _, hp := range []int{-1, 1, 4, 64} {
			pool := dev
			pool.HostParallelism = hp
			res, err := Join(alg, r, s, &Options{Device: pool})
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary() != want {
				t.Errorf("%s hostpar=%d: summary %+v, oracle %+v", alg, hp, res.Summary(), want)
			}
			if res.Total != serial.Total {
				t.Errorf("%s hostpar=%d: modelled total %v, serial %v", alg, hp, res.Total, serial.Total)
			}
			if len(res.Phases) != len(serial.Phases) {
				t.Fatalf("%s hostpar=%d: phase count %d, serial %d", alg, hp, len(res.Phases), len(serial.Phases))
			}
			for i := range res.Phases {
				if res.Phases[i] != serial.Phases[i] {
					t.Errorf("%s hostpar=%d: phase %+v, serial %+v", alg, hp, res.Phases[i], serial.Phases[i])
				}
			}
		}
	}
}
