package gbase

import (
	"testing"

	"skewjoin/internal/oracle"
)

func TestSubListSizeInvariance(t *testing.T) {
	// Correctness must not depend on the sub-list granularity.
	r, s := workload(t, 40000, 1.0, 21)
	want := oracle.Expected(r, s)
	for _, sub := range []int{64, 500, 4096, 1 << 20 /* clamped */} {
		res := Join(r, s, Config{SubListTuples: sub})
		if res.Summary != want {
			t.Errorf("sublist=%d: got %+v, want %+v", sub, res.Summary, want)
		}
	}
}

func TestSmallerSubListsMeanMoreReprobes(t *testing.T) {
	r, s := workload(t, 60000, 1.0, 22)
	big := Join(r, s, Config{SubListTuples: 4096})
	small := Join(r, s, Config{SubListTuples: 256})
	if small.Stats.SReprobes <= big.Stats.SReprobes {
		t.Errorf("reprobes should grow as sub-lists shrink: %d (256) vs %d (4096)",
			small.Stats.SReprobes, big.Stats.SReprobes)
	}
	if small.Stats.JoinBlocks <= big.Stats.JoinBlocks {
		t.Errorf("blocks should grow as sub-lists shrink: %d vs %d",
			small.Stats.JoinBlocks, big.Stats.JoinBlocks)
	}
}

// TestSubListBoundariesGolden pins where Gbase cuts a skewed R partition
// into sub-lists: whole buckets of BucketTuples (512) tuples,
// max(1, SubListTuples/512) of them per sub-list. 256 is below one bucket
// and 1000 is not a multiple of it, so both cut one-bucket sub-lists like
// 512 does; 4096 and the default (the 4096-tuple shared-memory capacity)
// cut eight-bucket ones. The block counts, re-probes and modelled join
// time follow from the boundaries alone; the largest partitions, which
// get cut, hold 6684 R and 6750 S tuples.
func TestSubListBoundariesGolden(t *testing.T) {
	r, s := workload(t, 60000, 1.0, 22)
	golden := []struct {
		subList           int
		blocks, subBlocks int
		reprobes          uint64
		joinNs            int64
	}{
		{256, 54, 24, 142870, 3700512},
		{512, 54, 24, 142870, 3700512},
		{1000, 54, 24, 142870, 3700512},
		{4096, 34, 4, 23174, 18668874},
		{0, 34, 4, 23174, 18668874},
	}
	for _, g := range golden {
		res := Join(r, s, Config{SubListTuples: g.subList})
		st := res.Stats
		if st.MaxPartitionR != 6684 || st.MaxPartitionS != 6750 {
			t.Errorf("sublist=%d: largest partitions %d R, %d S tuples; want 6684, 6750",
				g.subList, st.MaxPartitionR, st.MaxPartitionS)
		}
		if st.JoinBlocks != g.blocks || st.SubListBlocks != g.subBlocks || st.SReprobes != g.reprobes {
			t.Errorf("sublist=%d: %d join blocks, %d sub-list blocks, %d re-probes; want %d, %d, %d",
				g.subList, st.JoinBlocks, st.SubListBlocks, st.SReprobes, g.blocks, g.subBlocks, g.reprobes)
		}
		if got := phase(t, res, "join"); got != g.joinNs {
			t.Errorf("sublist=%d: modelled join %d ns, want %d", g.subList, got, g.joinNs)
		}
	}
}
