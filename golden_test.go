package skewjoin

import "testing"

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
