package radix

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

func randomTuples(n int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{Key: relation.Key(rng.Uint32() >> 8), Payload: relation.Payload(i)}
	}
	return ts
}

// sortedCopy canonicalises a tuple multiset for comparison.
func sortedCopy(ts []relation.Tuple) []relation.Tuple {
	c := make([]relation.Tuple, len(ts))
	copy(c, ts)
	sort.Slice(c, func(i, j int) bool {
		if c[i].Key != c[j].Key {
			return c[i].Key < c[j].Key
		}
		return c[i].Payload < c[j].Payload
	})
	return c
}

func TestPartitionIsPermutation(t *testing.T) {
	src := randomTuples(10000, 1)
	for _, cfg := range []Config{
		{Threads: 1, Bits1: 4, Bits2: 0},
		{Threads: 3, Bits1: 4, Bits2: 3},
		{Threads: 8, Bits1: 6, Bits2: 5},
	} {
		p := Partition(src, cfg, nil)
		if p.Total() != len(src) {
			t.Fatalf("cfg %+v: %d tuples out, %d in", cfg, p.Total(), len(src))
		}
		got := sortedCopy(p.Data)
		want := sortedCopy(src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cfg %+v: partitioning is not a permutation (first diff at %d)", cfg, i)
			}
		}
	}
}

func TestPlacementInvariant(t *testing.T) {
	src := randomTuples(20000, 2)
	for _, cfg := range []Config{
		{Threads: 2, Bits1: 5, Bits2: 0},
		{Threads: 4, Bits1: 5, Bits2: 4},
		{Threads: 1, Bits1: 1, Bits2: 1},
	} {
		p := Partition(src, cfg, nil)
		if bad := VerifyPlacement(p, cfg); bad >= 0 {
			t.Errorf("cfg %+v: tuple %d in wrong partition", cfg, bad)
		}
	}
}

func TestOffsetsAreMonotone(t *testing.T) {
	src := randomTuples(5000, 3)
	cfg := Config{Threads: 3, Bits1: 4, Bits2: 4}
	p := Partition(src, cfg, nil)
	if len(p.Offsets) != cfg.Fanout()+1 {
		t.Fatalf("offsets length %d, want %d", len(p.Offsets), cfg.Fanout()+1)
	}
	for i := 1; i < len(p.Offsets); i++ {
		if p.Offsets[i] < p.Offsets[i-1] {
			t.Fatalf("offsets not monotone at %d", i)
		}
	}
	if p.Offsets[0] != 0 || p.Offsets[len(p.Offsets)-1] != len(src) {
		t.Fatalf("offsets endpoints wrong: %d .. %d", p.Offsets[0], p.Offsets[len(p.Offsets)-1])
	}
}

func TestThreadCountDoesNotChangePartitionContents(t *testing.T) {
	src := randomTuples(8000, 4)
	cfg1 := Config{Threads: 1, Bits1: 5, Bits2: 3}
	cfg8 := Config{Threads: 8, Bits1: 5, Bits2: 3}
	p1 := Partition(src, cfg1, nil)
	samePartitionContents(t, "8 threads", p1, Partition(src, cfg8, nil))

	// PartitionPair splits the workers between its two inputs, or runs
	// them one after the other at one thread: either way each side must
	// hold what its own Partition call holds, an empty side included.
	other := randomTuples(3000, 5)
	for _, pair := range []struct {
		name string
		r, s []relation.Tuple
	}{
		{"both", src, other},
		{"empty-r", nil, other},
		{"empty-s", src, nil},
	} {
		wantR, wantS := Partition(pair.r, cfg1, nil), Partition(pair.s, cfg1, nil)
		for threads := 1; threads <= 4; threads++ {
			cfg := cfg1
			cfg.Threads = threads
			pr, ps := PartitionPair(pair.r, pair.s, cfg)
			samePartitionContents(t, fmt.Sprintf("pair %s, R at %d threads", pair.name, threads), wantR, pr)
			samePartitionContents(t, fmt.Sprintf("pair %s, S at %d threads", pair.name, threads), wantS, ps)
		}
	}
}

// samePartitionContents fails t unless got has want's fanout and every
// partition holds the same tuples as want's, in any order.
func samePartitionContents(t *testing.T, what string, want, got *Partitioned) {
	t.Helper()
	if got.Fanout() != want.Fanout() || got.Total() != want.Total() {
		t.Fatalf("%s: fanout %d with %d tuples, want %d with %d",
			what, got.Fanout(), got.Total(), want.Fanout(), want.Total())
	}
	for part := 0; part < want.Fanout(); part++ {
		a := sortedCopy(want.Part(part))
		b := sortedCopy(got.Part(part))
		if len(a) != len(b) {
			t.Fatalf("%s: partition %d: size %d vs %d", what, part, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: partition %d: content differs at %d", what, part, i)
			}
		}
	}
}

func TestSameKeySamePartition(t *testing.T) {
	// All tuples of one key must land in one partition — the very property
	// that makes skew unsplittable (§III).
	g := zipf.MustNew(zipf.Config{Theta: 1.0, Universe: 2000, Seed: 5})
	src := g.NewRelation(20000, 1).Tuples
	cfg := Config{Threads: 4, Bits1: 4, Bits2: 2}
	p := Partition(src, cfg, nil)
	where := make(map[relation.Key]int)
	for part := 0; part < cfg.Fanout(); part++ {
		for _, tp := range p.Part(part) {
			if prev, ok := where[tp.Key]; ok && prev != part {
				t.Fatalf("key %d appears in partitions %d and %d", tp.Key, prev, part)
			}
			where[tp.Key] = part
		}
	}
}

// tableWhere returns a checkup table holding the distinct keys of src that
// satisfy pred, in order of first appearance.
func tableWhere(src []relation.Tuple, pred func(relation.Tuple) bool) *CheckupTable {
	var keys []relation.Key
	seen := make(map[relation.Key]bool)
	for _, tp := range src {
		if pred(tp) && !seen[tp.Key] {
			seen[tp.Key] = true
			keys = append(keys, tp.Key)
		}
	}
	return NewCheckupTable(keys)
}

func TestDiverterExcludesAndHandles(t *testing.T) {
	src := randomTuples(10000, 6)
	victim := src[1234].Key
	var handled []relation.Tuple
	div := &Diverter{
		Table: NewCheckupTable([]relation.Key{victim}),
		Handle: func(w int, tp relation.Tuple, id int32) {
			if id != 0 {
				t.Errorf("handle got id %d, want 0", id)
			}
			handled = append(handled, tp)
		},
	}
	cfg := Config{Threads: 1, Bits1: 4, Bits2: 2}
	p := Partition(src, cfg, div)
	want := 0
	for _, tp := range src {
		if tp.Key == victim {
			want++
		}
	}
	if len(handled) != want {
		t.Errorf("handled %d diverted tuples, want %d", len(handled), want)
	}
	if p.Total() != len(src)-want {
		t.Errorf("partitioned %d tuples, want %d", p.Total(), len(src)-want)
	}
	for part := 0; part < cfg.Fanout(); part++ {
		for _, tp := range p.Part(part) {
			if tp.Key == victim {
				t.Fatalf("diverted key leaked into partition %d", part)
			}
		}
	}
}

func TestDiverterHandleSeesEachTupleOnce(t *testing.T) {
	src := randomTuples(5000, 7)
	count := make(map[relation.Payload]int)
	div := &Diverter{
		Table:  tableWhere(src, func(t relation.Tuple) bool { return t.Key%3 == 0 }),
		Handle: func(w int, tp relation.Tuple, id int32) { count[tp.Payload]++ },
	}
	Partition(src, Config{Threads: 1, Bits1: 3, Bits2: 3}, div)
	for p, c := range count {
		if c != 1 {
			t.Fatalf("payload %d handled %d times", p, c)
		}
	}
}

// TestDiverterThreadCountInvariant: a diverted partition's contents and
// the (id, tuple) pairs it hands over do not depend on the thread count,
// and its partitions are those of the input with the table's keys
// removed.
func TestDiverterThreadCountInvariant(t *testing.T) {
	g := zipf.MustNew(zipf.Config{Theta: 0.9, Universe: 4000, Seed: 8})
	src := g.NewRelation(20000, 1).Tuples
	table := tableWhere(src, func(tp relation.Tuple) bool { return tp.Key%5 == 0 })
	var kept []relation.Tuple
	for _, tp := range src {
		if table.Lookup(tp.Key) < 0 {
			kept = append(kept, tp)
		}
	}
	if len(kept) == len(src) || len(kept) == 0 {
		t.Fatalf("table diverts %d of %d tuples; want some but not all", len(src)-len(kept), len(src))
	}
	type pair struct {
		id int32
		tp relation.Tuple
	}
	for _, bits2 := range []uint32{0, 3} {
		want := Partition(kept, Config{Threads: 1, Bits1: 5, Bits2: bits2}, nil)
		var wantPairs []pair
		for _, threads := range []int{1, 2, 3, 8} {
			perWorker := make([][]pair, threads)
			cfg := Config{Threads: threads, Bits1: 5, Bits2: bits2}
			got := Partition(src, cfg, &Diverter{
				Table: table,
				Handle: func(w int, tp relation.Tuple, id int32) {
					perWorker[w] = append(perWorker[w], pair{id, tp})
				},
			})
			what := fmt.Sprintf("bits2=%d, %d threads", bits2, threads)
			samePartitionContents(t, what, want, got)

			var pairs []pair
			for _, ps := range perWorker {
				pairs = append(pairs, ps...)
			}
			sort.Slice(pairs, func(i, j int) bool { return pairs[i].tp.Payload < pairs[j].tp.Payload })
			if wantPairs == nil {
				wantPairs = pairs
				if len(pairs) != len(src)-len(kept) {
					t.Fatalf("%s: handed over %d tuples, want %d", what, len(pairs), len(src)-len(kept))
				}
				continue
			}
			if len(pairs) != len(wantPairs) {
				t.Fatalf("%s: handed over %d tuples, want %d", what, len(pairs), len(wantPairs))
			}
			for i := range pairs {
				if pairs[i] != wantPairs[i] {
					t.Fatalf("%s: handed over %+v, want %+v", what, pairs[i], wantPairs[i])
				}
			}
		}
	}
}

func TestEmptyInput(t *testing.T) {
	p := Partition(nil, Config{Threads: 4, Bits1: 4, Bits2: 4}, nil)
	if p.Total() != 0 {
		t.Errorf("empty input produced %d tuples", p.Total())
	}
	if bad := VerifyPlacement(p, Config{Threads: 4, Bits1: 4, Bits2: 4}); bad >= 0 {
		t.Errorf("placement violation %d on empty input", bad)
	}
}

func TestSingleTuple(t *testing.T) {
	src := []relation.Tuple{{Key: 77, Payload: 1}}
	cfg := Config{Threads: 8, Bits1: 6, Bits2: 5}
	p := Partition(src, cfg, nil)
	if p.Total() != 1 {
		t.Fatalf("got %d tuples", p.Total())
	}
	if bad := VerifyPlacement(p, cfg); bad >= 0 {
		t.Fatalf("placement violation")
	}
}

func TestMoreThreadsThanTuples(t *testing.T) {
	src := randomTuples(5, 8)
	p := Partition(src, Config{Threads: 16, Bits1: 3, Bits2: 2}, nil)
	if p.Total() != 5 {
		t.Errorf("got %d tuples, want 5", p.Total())
	}
}

func TestMultiPassMatchesTwoPass(t *testing.T) {
	src := randomTuples(12000, 21)
	two := Partition(src, Config{Threads: 3, Bits1: 4, Bits2: 3}, nil)
	multi := MultiPass(src, 3, []uint32{4, 3})
	if multi.Fanout() != two.Fanout() {
		t.Fatalf("fanout %d vs %d", multi.Fanout(), two.Fanout())
	}
	for p := 0; p < two.Fanout(); p++ {
		a := sortedCopy(two.Part(p))
		b := sortedCopy(multi.Part(p))
		if len(a) != len(b) {
			t.Fatalf("partition %d: %d vs %d tuples", p, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("partition %d differs at %d", p, i)
			}
		}
	}
}

func TestMultiPassThreePasses(t *testing.T) {
	src := randomTuples(15000, 22)
	p := MultiPass(src, 4, []uint32{3, 3, 2})
	if p.Fanout() != 1<<8 {
		t.Fatalf("fanout = %d", p.Fanout())
	}
	if p.Total() != len(src) {
		t.Fatalf("total = %d", p.Total())
	}
	// Same key ⇒ same partition, and the multiset is preserved.
	where := make(map[relation.Key]int)
	for part := 0; part < p.Fanout(); part++ {
		for _, tp := range p.Part(part) {
			if prev, ok := where[tp.Key]; ok && prev != part {
				t.Fatalf("key %d split across partitions %d and %d", tp.Key, prev, part)
			}
			where[tp.Key] = part
		}
	}
	got := sortedCopy(p.Data)
	want := sortedCopy(src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multiset differs at %d", i)
		}
	}
}

func TestMultiPassSinglePass(t *testing.T) {
	src := randomTuples(5000, 23)
	one := MultiPass(src, 2, []uint32{5})
	ref := Partition(src, Config{Threads: 2, Bits1: 5, Bits2: 0}, nil)
	if one.Fanout() != ref.Fanout() || one.Total() != ref.Total() {
		t.Fatalf("single-pass mismatch: %d/%d vs %d/%d",
			one.Fanout(), one.Total(), ref.Fanout(), ref.Total())
	}
}

func TestMultiPassNoPassesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero passes")
		}
	}()
	MultiPass(nil, 1, nil)
}

func TestQuickPartitionPreservesMultiset(t *testing.T) {
	f := func(keys []uint32, threadsRaw, b1Raw, b2Raw uint8) bool {
		src := make([]relation.Tuple, len(keys))
		for i, k := range keys {
			src[i] = relation.Tuple{Key: relation.Key(k), Payload: relation.Payload(i)}
		}
		cfg := Config{
			Threads: int(threadsRaw%8) + 1,
			Bits1:   uint32(b1Raw%6) + 1,
			Bits2:   uint32(b2Raw % 5),
		}
		p := Partition(src, cfg, nil)
		if p.Total() != len(src) {
			return false
		}
		if VerifyPlacement(p, cfg) >= 0 {
			return false
		}
		got := sortedCopy(p.Data)
		want := sortedCopy(src)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
