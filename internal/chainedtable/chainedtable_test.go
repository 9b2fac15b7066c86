package chainedtable

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"skewjoin/internal/exec"
	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

func randomTuples(n, keyRange int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{Key: relation.Key(rng.Intn(keyRange)), Payload: relation.Payload(i)}
	}
	return ts
}

// matcher is the probe primitive all three tables implement.
type matcher interface {
	Matches(k relation.Key, dst []relation.Payload) ([]relation.Payload, int)
}

// chained builds the reference chained table: a Concurrent filled by
// sequential Insert, which links each bucket's tuples by head insertion in
// tuple order — the paper's index-linked chains.
func chained(tuples []relation.Tuple) *Concurrent {
	c := NewConcurrent(tuples)
	for i := range tuples {
		c.Insert(i)
	}
	return c
}

// layout is one table built over a tuple set, named for error messages.
type layout struct {
	name string
	m    matcher
}

// layouts builds the one-shot layouts of the same buckets over tuples:
// the chained reference, the compact table the CPU join phase builds and
// the run table the simulated GPU kernels build.
func layouts(tuples []relation.Tuple) []layout {
	return []layout{
		{"chained", chained(tuples)},
		{"compact", BuildCompact(tuples)},
		{"runs", runMatcher{BuildRuns(tuples)}},
	}
}

// probeAll collects every matching payload for k, starting from no
// scratch so the growth path runs too.
func probeAll(m matcher, k relation.Key) []relation.Payload {
	got, _ := m.Matches(k, nil)
	return got
}

func TestProbeFindsAllMatches(t *testing.T) {
	tuples := randomTuples(5000, 200, 1)
	want := make(map[relation.Key]map[relation.Payload]bool)
	for _, tp := range tuples {
		if want[tp.Key] == nil {
			want[tp.Key] = make(map[relation.Payload]bool)
		}
		want[tp.Key][tp.Payload] = true
	}
	for _, l := range layouts(tuples) {
		for k, ps := range want {
			got := probeAll(l.m, k)
			if len(got) != len(ps) {
				t.Fatalf("%s key %d: %d matches, want %d", l.name, k, len(got), len(ps))
			}
			for _, p := range got {
				if !ps[p] {
					t.Fatalf("%s key %d: unexpected payload %d", l.name, k, p)
				}
			}
		}
	}
}

func TestProbeAbsentKey(t *testing.T) {
	for _, l := range layouts(randomTuples(100, 50, 2)) {
		if got := probeAll(l.m, relation.Key(1<<30)); len(got) != 0 {
			t.Errorf("%s: absent key matched %d tuples", l.name, len(got))
		}
	}
}

func TestProbeEmptyTable(t *testing.T) {
	for _, l := range layouts(nil) {
		if m, v := l.m.Matches(1, nil); len(m) != 0 || v != 0 {
			t.Errorf("%s empty table: %d matches, %d nodes visited", l.name, len(m), v)
		}
	}
}

func TestVisitsAtLeastMatches(t *testing.T) {
	for _, l := range layouts(randomTuples(2000, 20, 3)) {
		for k := relation.Key(0); k < 20; k++ {
			m, visits := l.m.Matches(k, nil)
			if visits < len(m) {
				t.Fatalf("%s key %d: %d visits < %d matches", l.name, k, visits, len(m))
			}
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
	if got := probeAll(table, 77); len(got) != 1000 {
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
		if cb := len(chained(randomTuples(n, 10, 4)).heads); cb != b {
			t.Errorf("n=%d: chained buckets = %d, compact %d", n, cb, b)
		}
	}
}

func TestSingleBucketTableProbes(t *testing.T) {
	// A 1-tuple partition gets a single bucket (shift 32 → every key maps
	// to bucket 0); probing must still find the tuple and reject others.
	tuples := []relation.Tuple{{Key: 42, Payload: 7}}
	chain, compact := chained(tuples), BuildCompact(tuples)
	if len(chain.heads) != 1 || compact.Buckets() != 1 {
		t.Fatalf("buckets = %d chained, %d compact, want 1", len(chain.heads), compact.Buckets())
	}
	for _, probe := range []matcher{chain, compact} {
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
	seq := chained(tuples)
	con := NewConcurrent(tuples)
	exec.Parallel(8, func(w int) {
		lo, hi := exec.Segment(len(tuples), 8, w)
		for i := lo; i < hi; i++ {
			con.Insert(i)
		}
	})
	for k := relation.Key(0); k < 300; k++ {
		a := probeAll(seq, k)
		b := probeAll(con, k)
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
		total += len(probeAll(con, k))
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
		for _, l := range layouts(tuples) {
			for _, pk := range probeKeys {
				k := relation.Key(pk)
				if m, _ := l.m.Matches(k, nil); len(m) != want[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickRunSumMatchesPayloads: for random tuples over a small key
// domain (so keys repeat and share buckets) and for zipf 0–1.2 relations,
// the sum a RunTable hands out with each key's run equals the sum of the
// run's payloads, and an absent key's run is empty with sum 0.
func TestQuickRunSumMatchesPayloads(t *testing.T) {
	check := func(tuples []relation.Tuple, probes []relation.Key) bool {
		rt := BuildRuns(tuples)
		for _, k := range probes {
			run, sum, _ := rt.Run(k)
			var want uint64
			for _, p := range run {
				want += uint64(p)
			}
			if sum != want {
				t.Logf("key %d: run of %d sums to %d, table says %d", k, len(run), want, sum)
				return false
			}
		}
		return true
	}
	f := func(keys []uint8, payloads []uint32, probeKeys []uint8) bool {
		tuples := make([]relation.Tuple, len(keys))
		for i, k := range keys {
			p := uint32(i) * 0x9e3779b9
			if i < len(payloads) {
				p = payloads[i]
			}
			tuples[i] = relation.Tuple{Key: relation.Key(k), Payload: relation.Payload(p)}
		}
		probes := make([]relation.Key, 0, len(keys)+len(probeKeys))
		for _, k := range keys {
			probes = append(probes, relation.Key(k))
		}
		for _, k := range probeKeys {
			probes = append(probes, relation.Key(k)+1000) // absent
		}
		return check(tuples, probes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, theta := range []float64{0, 0.5, 1.0, 1.2} {
		g, err := zipf.New(zipf.Config{Theta: theta, Universe: 4096, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		rel := g.NewRelation(4096, 1)
		probes := []relation.Key{1 << 31}
		for _, tp := range rel.Tuples {
			probes = append(probes, tp.Key)
		}
		if !check(rel.Tuples, probes) {
			t.Errorf("zipf %.1f: a run's sum differs from its payloads'", theta)
		}
	}
}

// scanBucket is the brute-force reference for a probe: the payloads of
// every tuple with key k, and the number of tuples that hash into k's
// bucket under the given bucket shift.
func scanBucket(tuples []relation.Tuple, shift uint32, k relation.Key) ([]relation.Payload, int) {
	var ps []relation.Payload
	inBucket := 0
	for _, tp := range tuples {
		if hashfn.Mix32(uint32(tp.Key))>>shift == hashfn.Mix32(uint32(k))>>shift {
			inBucket++
		}
		if tp.Key == k {
			ps = append(ps, tp.Payload)
		}
	}
	return ps, inBucket
}

// sameBucket returns count distinct keys, starting with k, that share k's
// bucket in a one-shot table over n tuples.
func sameBucket(k relation.Key, n, count int) []relation.Key {
	shift := 32 - hashfn.Log2(bucketCount(n))
	want := hashfn.Mix32(uint32(k)) >> shift
	keys := []relation.Key{k}
	for c := k + 1; len(keys) < count; c++ {
		if hashfn.Mix32(uint32(c))>>shift == want {
			keys = append(keys, c)
		}
	}
	return keys
}

// interleaved returns copies tuples of every key, the keys taking turns,
// with payloads numbering the tuples in order.
func interleaved(keys []relation.Key, copies int) []relation.Tuple {
	ts := make([]relation.Tuple, 0, len(keys)*copies)
	for i := 0; i < copies; i++ {
		for _, k := range keys {
			ts = append(ts, relation.Tuple{Key: k, Payload: relation.Payload(len(ts))})
		}
	}
	return ts
}

// runMatcher adapts a RunTable to the matcher the equivalence tests
// sweep; a run needs no scratch.
type runMatcher struct{ *RunTable }

func (m runMatcher) Matches(k relation.Key, _ []relation.Payload) ([]relation.Payload, int) {
	run, _, visits := m.Run(k)
	return run, visits
}

// TestMatchesAgreeWithScan checks the probe primitive of all four tables
// against a brute-force scan: for every probed key the matches agree with
// the scan's as a multiset, and the visit count equals the number of
// tuples in the key's bucket or chain. The run table must also hand out
// each key's matches in exactly the compact table's order. Each table that
// fills scratch starts from a 4-entry scratch, which the hot keys' 300
// matches outgrow. Two hot keys interleaved in one bucket, and a dozen
// keys sharing one, make the run table regroup a bucket.
func TestMatchesAgreeWithScan(t *testing.T) {
	hot := make([]relation.Tuple, 300, 500)
	for i := range hot {
		hot[i] = relation.Tuple{Key: 7, Payload: relation.Payload(i)}
	}
	hot = append(hot, randomTuples(200, 1000, 70)...)
	twoHot := append(interleaved(sameBucket(7, 800, 2), 300), randomTuples(200, 1000, 72)...)
	for _, c := range []struct {
		name   string
		tuples []relation.Tuple
	}{
		{"empty", nil},
		{"one-bucket", []relation.Tuple{{Key: 42, Payload: 7}}},
		{"hot-key", hot},
		{"random", randomTuples(1000, 200, 71)},
		{"two-hot-keys-one-bucket", twoHot},
		{"many-keys-one-bucket", interleaved(sameBucket(7, 60, 12), 5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			compact := BuildCompact(c.tuples)
			runs := BuildRuns(c.tuples)
			con := NewConcurrent(c.tuples)
			inc := NewIncremental(0)
			for i, tp := range c.tuples {
				con.Insert(i)
				inc.Insert(tp)
			}
			probeKeys := []relation.Key{7, 42, 43, 1 << 30}
			for _, tp := range c.tuples {
				probeKeys = append(probeKeys, tp.Key)
			}
			for _, tb := range []struct {
				name  string
				m     matcher
				shift uint32
			}{
				{"compact", compact, compact.shift},
				{"runs", runMatcher{runs}, runs.shift},
				{"concurrent", con, con.shift},
				{"incremental", inc, inc.shift},
			} {
				scratch := make([]relation.Payload, 4)
				for _, k := range probeKeys {
					got, visits := tb.m.Matches(k, scratch)
					want, wantVisits := scanBucket(c.tuples, tb.shift, k)
					if visits != wantVisits {
						t.Fatalf("%s key %d: %d visits, bucket holds %d", tb.name, k, visits, wantVisits)
					}
					if tb.name == "runs" {
						if cm, _ := compact.Matches(k, nil); !slices.Equal(got, cm) {
							t.Fatalf("runs key %d: run %v, compact matches %v", k, got, cm)
						}
					}
					sorted := append([]relation.Payload(nil), got...)
					sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
					sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
					if len(sorted) != len(want) {
						t.Fatalf("%s key %d: %d matches, scan %d", tb.name, k, len(sorted), len(want))
					}
					for i := range want {
						if sorted[i] != want[i] {
							t.Fatalf("%s key %d: matches %v, scan %v", tb.name, k, sorted, want)
						}
					}
					if tb.name != "runs" {
						scratch = got // a caller keeps the grown scratch
					}
				}
			}
		})
	}
}
