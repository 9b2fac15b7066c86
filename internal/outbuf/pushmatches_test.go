package outbuf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"skewjoin/internal/relation"
)

// A bucket here is what a compact table hands a probe: the entries that
// hash alongside the probed key, some with that key and some without.
// These tests check that PushMatches, which compares and writes in one
// pass, cannot be told apart from PushRun over the bucket's k-payloads.

// bucketProbe is one probe of a bucket: the probing S tuple (k, ps) and
// the entries its bucket holds.
type bucketProbe struct {
	k      relation.Key
	ps     relation.Payload
	bucket []relation.Tuple
}

// kPayloads returns the payloads of the bucket's entries whose key is k,
// in bucket order: the run PushRun would emit.
func (p bucketProbe) kPayloads() []relation.Payload {
	var run []relation.Payload
	for _, e := range p.bucket {
		if e.Key == p.k {
			run = append(run, e.Payload)
		}
	}
	return run
}

// randomProbes returns n probes whose buckets hold 0–24 entries, each
// matching the probed key with probability match (0 gives only no-match
// buckets); a non-matching entry carries a key next to k, as a
// bucket-mate would.
func randomProbes(rng *rand.Rand, n int, match float64) []bucketProbe {
	probes := make([]bucketProbe, n)
	for i := range probes {
		k := relation.Key(rng.Uint32())
		bucket := make([]relation.Tuple, rng.Intn(25))
		for j := range bucket {
			key := k + relation.Key(1+rng.Intn(4))
			if rng.Float64() < match {
				key = k
			}
			bucket[j] = relation.Tuple{Key: key, Payload: relation.Payload(rng.Uint32())}
		}
		probes[i] = bucketProbe{k: k, ps: relation.Payload(rng.Uint32()), bucket: bucket}
	}
	return probes
}

// midBucketWrap returns probes that wrap a 16-slot ring inside a bucket:
// thirteen matches, then a bucket whose ten matches are interleaved with
// non-matches, then an empty and a no-match bucket at the cursor the wrap
// leaves.
func midBucketWrap() []bucketProbe {
	first := bucketProbe{k: 5, ps: 50}
	for i := 0; i < 13; i++ {
		first.bucket = append(first.bucket, relation.Tuple{Key: 5, Payload: relation.Payload(i)})
	}
	second := bucketProbe{k: 9, ps: 90}
	for i := 0; i < 20; i++ {
		key := relation.Key(9)
		if i%2 == 1 {
			key = 10
		}
		second.bucket = append(second.bucket, relation.Tuple{Key: key, Payload: relation.Payload(100 + i)})
	}
	noMatch := bucketProbe{k: 3, ps: 30, bucket: []relation.Tuple{{Key: 4, Payload: 1}, {Key: 6, Payload: 2}}}
	return []bucketProbe{first, second, {k: 7, ps: 70}, noMatch}
}

// recordBatches returns a consumer that copies every batch into dst.
func recordBatches(dst *[][]Result) FlushFunc {
	return func(batch []Result) {
		*dst = append(*dst, append([]Result(nil), batch...))
	}
}

// TestPushMatchesEquivalentToPushRun drives the same probes through
// PushMatches and through PushRun over each bucket's k-payloads, on a
// plain 16-slot ring and with a flush consumer: count, checksum, every
// Last(n), the ring slots and the flushed batches must be identical.
// The random buckets mix matching and non-matching entries, and include
// empty and no-match buckets; one sequence wraps the ring in mid-bucket.
func TestPushMatchesEquivalentToPushRun(t *testing.T) {
	type workload struct {
		name   string
		probes []bucketProbe
	}
	workloads := []workload{
		{"mid-bucket-wrap", midBucketWrap()},
		{"no-match", randomProbes(rand.New(rand.NewSource(1)), 50, 0)},
	}
	for seed := int64(2); seed < 8; seed++ {
		workloads = append(workloads, workload{fmt.Sprintf("random-seed%d", seed), randomProbes(rand.New(rand.NewSource(seed)), 200, 0.6)})
	}
	for _, w := range workloads {
		for _, consume := range []bool{false, true} {
			sub := w.name + "/plain"
			if consume {
				sub = w.name + "/flush"
			}
			t.Run(sub, func(t *testing.T) {
				fused, twoPass := New(16), New(16)
				var fusedBatches, twoPassBatches [][]Result
				if consume {
					fused.SetFlush(recordBatches(&fusedBatches))
					twoPass.SetFlush(recordBatches(&twoPassBatches))
				}
				for _, p := range w.probes {
					fused.PushMatches(p.k, p.bucket, p.ps)
					twoPass.PushRun(p.k, p.kPayloads(), p.ps)
				}
				fused.Flush()
				twoPass.Flush()
				if fused.Count() != twoPass.Count() || fused.Checksum() != twoPass.Checksum() {
					t.Fatalf("PushMatches (%d, %#x), PushRun (%d, %#x)",
						fused.Count(), fused.Checksum(), twoPass.Count(), twoPass.Checksum())
				}
				if fused.Count() == 0 && w.name != "no-match" {
					t.Fatal("no results emitted")
				}
				for n := 1; n <= 16; n++ {
					if got, want := fused.Last(n), twoPass.Last(n); !reflect.DeepEqual(got, want) {
						t.Fatalf("Last(%d): PushMatches %v, PushRun %v", n, got, want)
					}
				}
				if !sameRing(fused, twoPass) {
					t.Error("PushMatches wrote different ring slots than PushRun")
				}
				if !reflect.DeepEqual(fusedBatches, twoPassBatches) {
					t.Errorf("flushed batches differ: PushMatches %d batches, PushRun %d",
						len(fusedBatches), len(twoPassBatches))
				}
			})
		}
	}
}

// TestPushMatchesWrapsInMidBucket pins the mid-bucket workload's shape:
// the second bucket's matches straddle the 16-slot ring's end, so the
// consumer receives a full ring ending inside that bucket.
func TestPushMatchesWrapsInMidBucket(t *testing.T) {
	b := New(16)
	var batches [][]Result
	b.SetFlush(recordBatches(&batches))
	probes := midBucketWrap()
	b.PushMatches(probes[0].k, probes[0].bucket, probes[0].ps)
	b.PushMatches(probes[1].k, probes[1].bucket, probes[1].ps)
	if len(batches) != 1 || len(batches[0]) != 16 {
		t.Fatalf("want one full batch after the wrap, got %d", len(batches))
	}
	if last := batches[0][15]; last.Key != 9 || last.PayloadR != 104 {
		t.Errorf("batch ends at %+v, want the second bucket's third match", last)
	}
	if b.Count() != 23 {
		t.Errorf("count = %d, want 23", b.Count())
	}
}

// TestPushMatchesAllocFree: the one-pass emit allocates nothing, on a
// plain ring and with a consumer, over buckets that wrap the ring.
func TestPushMatchesAllocFree(t *testing.T) {
	probes := randomProbes(rand.New(rand.NewSource(9)), 100, 0.6)
	for _, consume := range []bool{false, true} {
		b := New(16)
		if consume {
			rows := 0
			b.SetFlush(func(batch []Result) { rows += len(batch) })
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, p := range probes {
				b.PushMatches(p.k, p.bucket, p.ps)
			}
		})
		if allocs != 0 {
			t.Errorf("consumer %v: PushMatches allocates %.1f per pass, want 0", consume, allocs)
		}
	}
}
