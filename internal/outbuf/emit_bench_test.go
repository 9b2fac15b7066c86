package outbuf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"skewjoin/internal/relation"
)

// emitRoundItems is about how many results (bucket entries for
// PushMatches) each arm of a BenchmarkEmit round emits: enough calls that
// a round's clock reads are noise, few enough for thousands of rounds.
const emitRoundItems = 1 << 16

// emitArm makes reps calls of one emit operation into buf.
type emitArm func(buf *Buffer, reps int)

// BenchmarkEmit times each emit operation against the reference model in
// the same binary. b.N counts rounds; a round runs both arms, each on its
// own DefaultCapacity ring, over about emitRoundItems results, the two in
// alternating order from round to round so that neither always runs
// second into warm caches. It reports each arm's median over the rounds:
// ns/result and ref-ns/result for runs, ns/entry and ref-ns/entry for
// PushMatches (per bucket entry inspected), and ratio, the first over the
// second. ns/op is the time of one round.
//
// Runs go out at lengths 1 to three rings, with and without a consumer;
// buckets hold 0–3 mixed-key entries, as in a uniform join, or 16 to
// 4,608 entries of which a share carry the probed key (100%: a hot key's
// bucket).
func BenchmarkEmit(b *testing.B) {
	lengths := []int{1, 2, 8, 15, 16, 17, 32, 64, 300, 2900, 3 * DefaultCapacity}
	for _, runS := range []bool{false, true} {
		for _, consume := range []bool{false, true} {
			for _, n := range lengths {
				run := payloads(1, n)
				reps := max(1, emitRoundItems/n)
				emit, ref := emitArm(func(buf *Buffer, reps int) {
					for i := 0; i < reps; i++ {
						buf.PushRun(7, run, 9)
					}
				}), emitArm(func(buf *Buffer, reps int) {
					for i := 0; i < reps; i++ {
						refPushRun(buf, 7, run, 9)
					}
				})
				op := "PushRun"
				if runS {
					op = "PushRunS"
					emit = func(buf *Buffer, reps int) {
						for i := 0; i < reps; i++ {
							buf.PushRunS(7, 9, run)
						}
					}
					ref = func(buf *Buffer, reps int) {
						for i := 0; i < reps; i++ {
							refPushRunS(buf, 7, 9, run)
						}
					}
				}
				name := fmt.Sprintf("%s/consumer=%v/len=%d", op, consume, n)
				b.Run(name, func(b *testing.B) {
					benchArms(b, consume, "result", reps, reps*n, emit, ref)
				})
			}
		}
	}
	type shape struct {
		name   string
		lo, hi int
		share  float64
	}
	shapes := []shape{{name: "buckets=0-3/share=50%", lo: 0, hi: 3, share: 0.5}}
	for _, n := range []int{16, 64, 276, 4608} {
		for _, share := range []int{10, 50, 90, 100} {
			shapes = append(shapes, shape{name: fmt.Sprintf("bucket=%d/share=%d%%", n, share), lo: n, hi: n, share: float64(share) / 100})
		}
	}
	for _, s := range shapes {
		probes := randomProbes(rand.New(rand.NewSource(1)), max(16, emitRoundItems/max(1, s.hi)), s.lo, s.hi, s.share)
		entries := 0
		for _, p := range probes {
			entries += len(p.bucket)
		}
		pass := func(push func(buf *Buffer, k relation.Key, bucket []relation.Tuple, ps relation.Payload)) emitArm {
			return func(buf *Buffer, reps int) {
				for i := 0; i < reps; i++ {
					for _, p := range probes {
						push(buf, p.k, p.bucket, p.ps)
					}
				}
			}
		}
		emit, ref := pass((*Buffer).PushMatches), pass(refPushMatches)
		b.Run("PushMatches/"+s.name, func(b *testing.B) {
			benchArms(b, false, "entry", 1, entries, emit, ref)
		})
	}
}

// benchArms runs b.N alternating rounds of emit and ref, each making reps
// calls that emit or inspect items units, and reports both arms' median
// ns per unit and their ratio.
func benchArms(b *testing.B, consume bool, unit string, reps, items int, emit, ref emitArm) {
	arms := [2]emitArm{emit, ref}
	var bufs [2]*Buffer
	rows := 0
	for a := range bufs {
		bufs[a] = New(0)
		if consume {
			bufs[a].SetFlush(func(batch []Result) { rows += len(batch) })
		}
	}
	perUnit := [2][]float64{make([]float64, 0, b.N), make([]float64, 0, b.N)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 2; j++ {
			a := (i + j) % 2
			start := time.Now()
			arms[a](bufs[a], reps)
			perUnit[a] = append(perUnit[a], float64(time.Since(start).Nanoseconds())/float64(items))
		}
	}
	b.StopTimer()
	if bufs[0].Count() != bufs[1].Count() || bufs[0].Checksum() != bufs[1].Checksum() {
		b.Fatalf("arms diverge: count %d checksum %#x, reference %d %#x",
			bufs[0].Count(), bufs[0].Checksum(), bufs[1].Count(), bufs[1].Checksum())
	}
	got, want := medianOf(perUnit[0]), medianOf(perUnit[1])
	b.ReportMetric(got, "ns/"+unit)
	b.ReportMetric(want, "ref-ns/"+unit)
	b.ReportMetric(got/want, "ratio")
}

func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
