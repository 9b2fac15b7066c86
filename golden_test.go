package skewjoin

import (
	"fmt"
	"testing"
)

// TestGoldenWorkloads pins the workload generator and oracle to known
// values for fixed seeds. Any change to the interval construction, key
// sampling, draw procedure or checksum definition shows up here first —
// reproducibility of every experiment in EXPERIMENTS.md depends on these
// staying stable.
func TestGoldenWorkloads(t *testing.T) {
	golden := []struct {
		n        int
		theta    float64
		seed     int64
		matches  uint64
		checksum uint64
	}{
		{10000, 0.0, 42, 9913, 0xb924be6e382c471c},
		{10000, 0.7, 42, 131133, 0xaf5fc23ac7065323},
		{10000, 1.0, 42, 1805154, 0x132d9440ff1c51e3},
		{25000, 0.9, 7, 3524904, 0x274e6542b4769212},
	}
	for _, g := range golden {
		r, s, err := GenerateZipfPair(g.n, g.theta, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		e := Expected(r, s)
		if e.Matches != g.matches || e.Checksum != g.checksum {
			t.Errorf("n=%d zipf=%.1f seed=%d: got (%d, %#x), want (%d, %#x) — generator or checksum changed",
				g.n, g.theta, g.seed, e.Matches, e.Checksum, g.matches, g.checksum)
		}
		// Every algorithm must land exactly on the golden summary too.
		for _, alg := range ExtendedAlgorithms() {
			res, err := Join(alg, r, s, &Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != g.matches || res.Checksum != g.checksum {
				t.Errorf("%s on golden workload n=%d zipf=%.1f: got (%d, %#x)",
					alg, g.n, g.theta, res.Matches, res.Checksum)
			}
		}
	}
}

// TestModelledPhasesGolden pins the per-phase modelled device time of
// Gbase and GSH to the nanosecond. Modelled time depends only on the
// workload, the device profile and the charges the kernels issue, not on
// the host or on how the host stores a table, so any drift here is a
// change to the simulated algorithms. At zipf 1.0 the 1 KiB
// shared-memory device makes Gbase split its hot bucket list into
// sub-lists and GSH detect, divide and join its skewed keys; the default
// A100 profile takes neither path at this size.
func TestModelledPhasesGolden(t *testing.T) {
	type phase struct {
		name string
		ns   int64
	}
	smallShm := DeviceConfig{SharedMemBytes: 1 << 10}
	golden := []struct {
		theta  float64
		device string
		dev    DeviceConfig
		alg    Algorithm
		phases []phase
	}{
		{0.0, "a100", DeviceConfig{}, Gbase, []phase{{"partition", 6292}, {"join", 11330}}},
		{0.0, "a100", DeviceConfig{}, GSH, []phase{{"partition", 13191}, {"detect", 0}, {"divide", 0}, {"nmjoin", 11330}, {"skewjoin", 0}}},
		{1.0, "a100", DeviceConfig{}, Gbase, []phase{{"partition", 6292}, {"join", 403085}}},
		{1.0, "a100", DeviceConfig{}, GSH, []phase{{"partition", 13756}, {"detect", 0}, {"divide", 0}, {"nmjoin", 403085}, {"skewjoin", 0}}},
		{0.0, "shm-1KiB", smallShm, Gbase, []phase{{"partition", 7564}, {"join", 2226}}},
		{0.0, "shm-1KiB", smallShm, GSH, []phase{{"partition", 9037}, {"detect", 0}, {"divide", 0}, {"nmjoin", 2150}, {"skewjoin", 0}}},
		{1.0, "shm-1KiB", smallShm, Gbase, []phase{{"partition", 7564}, {"join", 223520}}},
		{1.0, "shm-1KiB", smallShm, GSH, []phase{{"partition", 10624}, {"detect", 1517}, {"divide", 2073}, {"nmjoin", 4017}, {"skewjoin", 5424}}},
	}
	for _, g := range golden {
		r, s, err := GenerateZipfPair(4096, g.theta, 21)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Join(g.alg, r, s, &Options{Device: g.dev})
		if err != nil {
			t.Fatal(err)
		}
		if want := Expected(r, s); res.Summary() != want {
			t.Errorf("%s zipf %.1f %s: output %+v, oracle %+v", g.alg, g.theta, g.device, res.Summary(), want)
		}
		var got []phase
		for _, p := range res.Phases {
			got = append(got, phase{p.Name, p.Duration.Nanoseconds()})
		}
		if fmt.Sprint(got) != fmt.Sprint(g.phases) {
			t.Errorf("%s zipf %.1f %s: modelled phases %v, want %v", g.alg, g.theta, g.device, got, g.phases)
		}
	}
}
