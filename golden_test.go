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
// Gbase, GSH and GSMJ to the nanosecond, and the exact stream their
// consumers receive. Modelled time depends only on the workload, the
// device profile and the charges the kernels issue, not on the host or on
// how the host stores a table, so any drift here is a change to the
// simulated algorithms. The digest folds every batch each simulated SM's
// consumer receives, in flush order, so it moves if a kernel emits the
// same results in another order or splits them into other batches. At
// zipf 1.0 the 1 KiB
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
		digest uint64
	}{
		{0.0, "a100", DeviceConfig{}, Gbase, []phase{{"partition", 6292}, {"join", 11330}}, 0x280019c80261adee},
		{0.0, "a100", DeviceConfig{}, GSH, []phase{{"partition", 13191}, {"detect", 0}, {"divide", 0}, {"nmjoin", 11330}, {"skewjoin", 0}}, 0x280019c80261adee},
		{1.0, "a100", DeviceConfig{}, Gbase, []phase{{"partition", 6292}, {"join", 403085}}, 0xbe35f618966753dc},
		{1.0, "a100", DeviceConfig{}, GSH, []phase{{"partition", 13756}, {"detect", 0}, {"divide", 0}, {"nmjoin", 403085}, {"skewjoin", 0}}, 0xbe35f618966753dc},
		{0.0, "shm-1KiB", smallShm, Gbase, []phase{{"partition", 7564}, {"join", 2226}}, 0x8413aa575ef32616},
		{0.0, "shm-1KiB", smallShm, GSH, []phase{{"partition", 9037}, {"detect", 0}, {"divide", 0}, {"nmjoin", 2150}, {"skewjoin", 0}}, 0xfc3a9d74130647f0},
		{1.0, "shm-1KiB", smallShm, Gbase, []phase{{"partition", 7564}, {"join", 223520}}, 0xc97b29a467369872},
		{1.0, "shm-1KiB", smallShm, GSH, []phase{{"partition", 10624}, {"detect", 1517}, {"divide", 2073}, {"nmjoin", 4017}, {"skewjoin", 5424}}, 0xa74fd90d9df33abc},
		{0.0, "a100", DeviceConfig{}, GSMJ, []phase{{"sort", 174824}, {"merge", 1512}}, 0x8c15659a9de94d22},
		{1.0, "a100", DeviceConfig{}, GSMJ, []phase{{"sort", 174824}, {"merge", 17243}}, 0x43070790b1a0ba9a},
		{0.0, "shm-1KiB", smallShm, GSMJ, []phase{{"sort", 174824}, {"merge", 1512}}, 0x8c15659a9de94d22},
		{1.0, "shm-1KiB", smallShm, GSMJ, []phase{{"sort", 174824}, {"merge", 5740}}, 0x74c26709a7f2423e},
	}
	for _, g := range golden {
		r, s, err := GenerateZipfPair(4096, g.theta, 21)
		if err != nil {
			t.Fatal(err)
		}
		want := Expected(r, s)
		sd := newStreamDigest(0)
		res, err := Join(g.alg, r, s, &Options{Device: g.dev, Consumer: sd.consumer})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary() != want {
			t.Errorf("%s zipf %.1f %s: output %+v, oracle %+v", g.alg, g.theta, g.device, res.Summary(), want)
		}
		var got []phase
		for _, p := range res.Phases {
			got = append(got, phase{p.Name, p.Duration.Nanoseconds()})
		}
		if fmt.Sprint(got) != fmt.Sprint(g.phases) {
			t.Errorf("%s zipf %.1f %s: modelled phases %v, want %v", g.alg, g.theta, g.device, got, g.phases)
		}
		if d := sd.sum(); d != g.digest {
			t.Errorf("%s zipf %.1f %s: stream digest %#x, want %#x", g.alg, g.theta, g.device, d, g.digest)
		}
	}

	// A split on the coupled device with a pinned calibration places the
	// same partitions and fragments on every run, so the simulated SMs'
	// streams are deterministic too; the CPU workers' interleaving is
	// not, so only the SMs' consumers (worker index >= Threads) are
	// digested. At zipf 1.25 the plan fragments the hot partition, so
	// the SMs probe its build side too.
	r, s, err := GenerateZipfPair(4096, 1.25, 21)
	if err != nil {
		t.Fatal(err)
	}
	want := Expected(r, s)
	const splitDigest, splitGPUJoinNs = 0x7906fbcb97fe5fc3, 1213444
	opts := fragmentOptions(8)
	sd := newStreamDigest(opts.Threads)
	opts.Consumer = sd.consumer
	res, err := Join(Split, r, s, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary() != want {
		t.Errorf("split: output %+v, oracle %+v", res.Summary(), want)
	}
	if res.Split.GPUFragments == 0 {
		t.Fatalf("split: no fragment of the hot partition ran on the simulated GPU: %+v", res.Split.Plan)
	}
	if res.Split.GPUJoinNs != splitGPUJoinNs {
		t.Errorf("split: modelled GPU join %d ns, want %d", res.Split.GPUJoinNs, splitGPUJoinNs)
	}
	if d := sd.sum(); d != splitDigest {
		t.Errorf("split: SM stream digest %#x, want %#x", d, splitDigest)
	}
}

// TestCPUStreamGolden pins the exact stream a consumer receives from the
// CPU join phase: Cbase, and CSH (whose skew path and NM-join both emit),
// at one thread, where the task queue drains in order and so the stream
// is deterministic. The digest folds every batch in flush order, so it
// moves if a probe emits the same results in another order or splits
// them into other batches. At zipf 0 CSH's stream equals Cbase's.
func TestCPUStreamGolden(t *testing.T) {
	golden := []struct {
		theta  float64
		alg    Algorithm
		digest uint64
	}{
		{0.0, Cbase, 0x288eda2ef950c721},
		{0.0, CSH, 0x288eda2ef950c721},
		{1.0, Cbase, 0x19c4b70f7a4fdba5},
		{1.0, CSH, 0x2a2a4b68269df9e7},
	}
	for _, g := range golden {
		r, s, err := GenerateZipfPair(4096, g.theta, 21)
		if err != nil {
			t.Fatal(err)
		}
		sd := newStreamDigest(0)
		res, err := Join(g.alg, r, s, &Options{Threads: 1, Consumer: sd.consumer})
		if err != nil {
			t.Fatal(err)
		}
		if want := Expected(r, s); res.Summary() != want {
			t.Errorf("%s zipf %.1f: output %+v, oracle %+v", g.alg, g.theta, res.Summary(), want)
		}
		if d := sd.sum(); d != g.digest {
			t.Errorf("%s zipf %.1f: stream digest %#x, want %#x", g.alg, g.theta, d, g.digest)
		}
	}
}

// streamDigest folds every batch handed to the consumers of workers
// from..N-1 into one order-sensitive hash per worker: FNV-1a over the
// batch length and each result's key and payloads, in flush order.
type streamDigest struct {
	from    int
	workers []*uint64
}

func newStreamDigest(from int) *streamDigest { return &streamDigest{from: from} }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// consumer is an Options.Consumer factory; Join calls it sequentially
// before any worker runs, and each worker feeds only its own hash.
func (d *streamDigest) consumer(worker int) ResultConsumer {
	for len(d.workers) <= worker {
		d.workers = append(d.workers, nil)
	}
	if worker < d.from {
		return func([]JoinResult) {}
	}
	h := new(uint64)
	*h = fnvOffset
	d.workers[worker] = h
	return func(batch []JoinResult) {
		x := (*h ^ uint64(len(batch))) * fnvPrime
		for _, r := range batch {
			x = (x ^ uint64(r.Key)) * fnvPrime
			x = (x ^ uint64(r.PayloadR)) * fnvPrime
			x = (x ^ uint64(r.PayloadS)) * fnvPrime
		}
		*h = x
	}
}

// sum combines the digested workers' hashes in worker-index order.
func (d *streamDigest) sum() uint64 {
	x := uint64(fnvOffset)
	for w, h := range d.workers {
		if h != nil {
			x = (x ^ uint64(w)) * fnvPrime
			x = (x ^ *h) * fnvPrime
		}
	}
	return x
}
