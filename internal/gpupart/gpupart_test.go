package gpupart

import (
	"testing"
	"testing/quick"

	"skewjoin/internal/gpusim"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

func TestFanoutTargetsCapacity(t *testing.T) {
	for _, tc := range []struct{ n, capacity int }{
		{1 << 18, 4096},
		{1 << 16, 4096},
		{1 << 20, 512},
		{100, 4096},
		{1, 1},
	} {
		b1, b2 := Fanout(tc.n, tc.capacity)
		if b1 < 1 || b2 < 1 {
			t.Errorf("n=%d cap=%d: bits %d/%d — both passes must be exercised", tc.n, tc.capacity, b1, b2)
		}
		fan := 1 << (b1 + b2)
		if fan < 4 {
			t.Errorf("n=%d cap=%d: fanout %d too small", tc.n, tc.capacity, fan)
		}
		// Uniform data must land at or under capacity with the headroom.
		if avg := tc.n / fan; avg > tc.capacity {
			t.Errorf("n=%d cap=%d: avg partition %d exceeds capacity", tc.n, tc.capacity, avg)
		}
	}
}

func TestQuickFanoutInvariants(t *testing.T) {
	f := func(nRaw uint32, capRaw uint16) bool {
		n := int(nRaw%(1<<22)) + 1
		capacity := int(capRaw%8192) + 1
		b1, b2 := Fanout(n, capacity)
		if b1 < 1 || b2 < 1 || b1+b2 > 30 {
			return false
		}
		return n/(1<<(b1+b2)) <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFunctionalMatchesRadixPlacement(t *testing.T) {
	g := zipf.MustNew(zipf.Config{Theta: 0.8, Universe: 5000, Seed: 1})
	r := g.NewRelation(20000, 1)
	p := Functional(r.Tuples, 4, 3)
	if p.Total() != r.Len() {
		t.Fatalf("partitioned %d of %d tuples", p.Total(), r.Len())
	}
	if p.Fanout() != 1<<7 {
		t.Fatalf("fanout = %d", p.Fanout())
	}
}

// TestFunctionalKeepsInputOrder pins what Gbase's sub-lists rely on:
// partition p holds exactly the input tuples whose key maps to p under
// the two-pass radix bits, in input order — the contents and order of a
// bucket list that fills each bucket before linking the next, so a run
// of whole buckets is a tuple range of the partition.
func TestFunctionalKeepsInputOrder(t *testing.T) {
	check := func(tuples []relation.Tuple, bits1, bits2 uint32) bool {
		p := Functional(tuples, bits1, bits2)
		want := make([][]relation.Tuple, 1<<(bits1+bits2))
		for _, tp := range tuples {
			part := radix.PartOf(tp.Key, radix.Config{Bits1: bits1, Bits2: bits2})
			want[part] = append(want[part], tp)
		}
		for i := range want {
			got := p.Part(i)
			if len(got) != len(want[i]) {
				return false
			}
			for j := range got {
				if got[j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	g := zipf.MustNew(zipf.Config{Theta: 1.0, Universe: 5000, Seed: 2})
	if !check(g.NewRelation(20000, 1).Tuples, 3, 2) {
		t.Fatal("zipf 1.0: partitions differ from the input's order-preserving split")
	}
	f := func(keys []uint16) bool {
		tuples := make([]relation.Tuple, len(keys))
		for i, k := range keys {
			tuples[i] = relation.Tuple{Key: relation.Key(k), Payload: relation.Payload(i)}
		}
		return check(tuples, 2, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProbeJoinBlockCorrectAndCharged(t *testing.T) {
	g := zipf.MustNew(zipf.Config{Theta: 0.9, Universe: 200, Seed: 2})
	r, s := g.Pair(1000)
	dev := gpusim.NewDevice(gpusim.Config{})
	var matches int
	dev.Launch("join", "test", 1, func(b *gpusim.Block) {
		matches = ProbeJoinBlock(b, r.Tuples, s.Tuples)
		if b.Cycles() <= 0 {
			t.Error("block charged no cycles")
		}
	})
	sum := dev.OutputSummary()
	if sum.Count != uint64(matches) {
		t.Errorf("emitted %d, returned %d", sum.Count, matches)
	}
	// Brute-force count.
	freqR := relation.KeyFrequencies(r)
	var want uint64
	for _, ts := range s.Tuples {
		want += uint64(freqR[ts.Key])
	}
	if sum.Count != want {
		t.Errorf("count = %d, want %d", sum.Count, want)
	}
	st := dev.Stats()
	if st.Atomics == 0 || st.Barriers == 0 {
		t.Errorf("write-bitmap costs not charged: %+v", st)
	}
}

func TestProbeJoinBlockEmptySides(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.Config{})
	dev.Launch("join", "test", 1, func(b *gpusim.Block) {
		if m := ProbeJoinBlock(b, nil, nil); m != 0 {
			t.Errorf("empty join produced %d matches", m)
		}
	})
	if sum := dev.OutputSummary(); sum.Count != 0 {
		t.Errorf("output count = %d", sum.Count)
	}
}

func TestProbeJoinDivergenceGrowsWithSkew(t *testing.T) {
	mk := func(theta float64) gpusim.Stats {
		g := zipf.MustNew(zipf.Config{Theta: theta, Universe: 4000, Seed: 3})
		r, s := g.Pair(4000)
		dev := gpusim.NewDevice(gpusim.Config{})
		dev.Launch("join", "test", 1, func(b *gpusim.Block) {
			ProbeJoinBlock(b, r.Tuples, s.Tuples)
		})
		return dev.Stats()
	}
	uniform := mk(0)
	skewed := mk(1.0)
	if skewed.DivergenceWasted <= uniform.DivergenceWasted {
		t.Errorf("divergence should grow with skew: %d vs %d",
			skewed.DivergenceWasted, uniform.DivergenceWasted)
	}
}
