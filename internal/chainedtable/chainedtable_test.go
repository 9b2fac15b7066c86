package chainedtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"skewjoin/internal/exec"
	"skewjoin/internal/relation"
)

func randomTuples(n, keyRange int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{Key: relation.Key(rng.Intn(keyRange)), Payload: relation.Payload(i)}
	}
	return ts
}

// probeAll collects every matching payload for k.
func probeAll(probe func(relation.Key, func(relation.Payload)) int, k relation.Key) []relation.Payload {
	var out []relation.Payload
	probe(k, func(p relation.Payload) { out = append(out, p) })
	return out
}

func TestProbeFindsAllMatches(t *testing.T) {
	tuples := randomTuples(5000, 200, 1)
	table := Build(tuples)
	want := make(map[relation.Key]map[relation.Payload]bool)
	for _, tp := range tuples {
		if want[tp.Key] == nil {
			want[tp.Key] = make(map[relation.Payload]bool)
		}
		want[tp.Key][tp.Payload] = true
	}
	for k, ps := range want {
		got := probeAll(table.Probe, k)
		if len(got) != len(ps) {
			t.Fatalf("key %d: %d matches, want %d", k, len(got), len(ps))
		}
		for _, p := range got {
			if !ps[p] {
				t.Fatalf("key %d: unexpected payload %d", k, p)
			}
		}
	}
}

func TestProbeAbsentKey(t *testing.T) {
	table := Build(randomTuples(100, 50, 2))
	if got := probeAll(table.Probe, relation.Key(1<<30)); len(got) != 0 {
		t.Errorf("absent key matched %d tuples", len(got))
	}
}

func TestProbeEmptyTable(t *testing.T) {
	table := Build(nil)
	if v := table.Probe(1, func(relation.Payload) { t.Error("match in empty table") }); v != 0 {
		t.Errorf("visited %d nodes in empty table", v)
	}
}

func TestVisitsAtLeastMatches(t *testing.T) {
	tuples := randomTuples(2000, 20, 3)
	table := Build(tuples)
	for k := relation.Key(0); k < 20; k++ {
		matches := 0
		visits := table.Probe(k, func(relation.Payload) { matches++ })
		if visits < matches {
			t.Fatalf("key %d: %d visits < %d matches", k, visits, matches)
		}
	}
}

func TestSkewProducesLongChain(t *testing.T) {
	// All tuples share one key: the bucket the join phase builds must span
	// the whole table — the pathology of §III.
	tuples := make([]relation.Tuple, 1000)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: 77, Payload: relation.Payload(i)}
	}
	table := BuildCompact(tuples)
	if mc := table.MaxChain(); mc != 1000 {
		t.Errorf("MaxChain = %d, want 1000", mc)
	}
	if got := probeAll(table.Probe, 77); len(got) != 1000 {
		t.Errorf("probe found %d of 1000", len(got))
	}
}

func TestUniformKeysShortChains(t *testing.T) {
	// Distinct keys with one bucket per tuple: buckets stay short.
	tuples := make([]relation.Tuple, 4096)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: relation.Key(i), Payload: relation.Payload(i)}
	}
	table := BuildCompact(tuples)
	if mc := table.MaxChain(); mc > 12 {
		t.Errorf("MaxChain = %d for distinct keys", mc)
	}
}

func TestBucketsPowerOfTwo(t *testing.T) {
	// The bucket count is the next power of two >= n, clamped below at 1:
	// tiny partitions (the bulk of high-fanout task counts) must not pay
	// for buckets they cannot fill.
	wantBuckets := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 100: 128, 4096: 4096}
	for _, n := range []int{0, 1, 2, 3, 100, 4096} {
		table := BuildCompact(randomTuples(n, 10, 4))
		b := table.Buckets()
		if b&(b-1) != 0 || b < 1 {
			t.Errorf("n=%d: buckets = %d", n, b)
		}
		if b != wantBuckets[n] {
			t.Errorf("n=%d: buckets = %d, want %d", n, b, wantBuckets[n])
		}
		if table.Len() != n {
			t.Errorf("n=%d: Len = %d", n, table.Len())
		}
		if cb := len(Build(randomTuples(n, 10, 4)).heads); cb != b {
			t.Errorf("n=%d: chained buckets = %d, compact %d", n, cb, b)
		}
	}
}

func TestSingleBucketTableProbes(t *testing.T) {
	// A 1-tuple partition gets a single bucket (shift 32 → every key maps
	// to bucket 0); probing must still find the tuple and reject others.
	tuples := []relation.Tuple{{Key: 42, Payload: 7}}
	chained, compact := Build(tuples), BuildCompact(tuples)
	if len(chained.heads) != 1 || compact.Buckets() != 1 {
		t.Fatalf("buckets = %d chained, %d compact, want 1", len(chained.heads), compact.Buckets())
	}
	for _, probe := range []func(relation.Key, func(relation.Payload)) int{chained.Probe, compact.Probe} {
		if got := probeAll(probe, 42); len(got) != 1 || got[0] != 7 {
			t.Errorf("probe(42) = %v", got)
		}
		if got := probeAll(probe, 43); len(got) != 0 {
			t.Errorf("probe(43) matched %d tuples", len(got))
		}
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	tuples := randomTuples(8000, 300, 5)
	seq := Build(tuples)
	con := NewConcurrent(tuples)
	exec.Parallel(8, func(w int) {
		lo, hi := exec.Segment(len(tuples), 8, w)
		for i := lo; i < hi; i++ {
			con.Insert(i)
		}
	})
	for k := relation.Key(0); k < 300; k++ {
		a := probeAll(seq.Probe, k)
		b := probeAll(con.Probe, k)
		if len(a) != len(b) {
			t.Fatalf("key %d: sequential %d matches, concurrent %d", k, len(a), len(b))
		}
		seen := make(map[relation.Payload]bool, len(a))
		for _, p := range a {
			seen[p] = true
		}
		for _, p := range b {
			if !seen[p] {
				t.Fatalf("key %d: concurrent-only payload %d", k, p)
			}
		}
	}
}

func TestConcurrentSingleThread(t *testing.T) {
	tuples := randomTuples(100, 10, 6)
	con := NewConcurrent(tuples)
	for i := range tuples {
		con.Insert(i)
	}
	total := 0
	for k := relation.Key(0); k < 10; k++ {
		total += len(probeAll(con.Probe, k))
	}
	if total != len(tuples) {
		t.Errorf("found %d tuples, want %d", total, len(tuples))
	}
}

func TestQuickTableEqualsMapSemantics(t *testing.T) {
	f := func(keys []uint8, probeKeys []uint8) bool {
		tuples := make([]relation.Tuple, len(keys))
		want := make(map[relation.Key]int)
		for i, k := range keys {
			tuples[i] = relation.Tuple{Key: relation.Key(k), Payload: relation.Payload(i)}
			want[relation.Key(k)]++
		}
		table := Build(tuples)
		for _, pk := range probeKeys {
			k := relation.Key(pk)
			n := 0
			table.Probe(k, func(relation.Payload) { n++ })
			if n != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
