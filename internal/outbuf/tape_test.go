package outbuf

import (
	"math/rand"
	"reflect"
	"testing"

	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

// applyOps drives the same random operation sequence into a Buffer or a
// Tape. The runs are consecutive slices of one append-only payload array,
// as a probe hands out slices of its build table; some are empty.
func applyOps(w runWriter, rng *rand.Rand, nOps int) {
	payloads := make([]relation.Payload, 0, 8*nOps)
	for i := 0; i < nOps; i++ {
		lo := len(payloads)
		for n := rng.Intn(9); n > 0; n-- {
			payloads = append(payloads, relation.Payload(rng.Uint32()))
		}
		run := payloads[lo:len(payloads):len(payloads)]
		if rng.Intn(2) == 0 {
			w.PushRun(relation.Key(rng.Uint32()), run, relation.Payload(rng.Uint32()))
		} else {
			w.PushRunS(relation.Key(rng.Uint32()), relation.Payload(rng.Uint32()), run)
		}
	}
}

// TestTapeSummaryOnlyMatchesFull drives an identical random operation
// stream, whose runs wrap the 64-slot ring many times, into a Buffer
// directly and through a tape into two more: one with a consumer, one
// without. The watched buffer must match the direct one in ring slots,
// count, checksum and flush batches, since the tape pushes each run to it
// as is. The unwatched one gets only the fold: the same count and
// checksum, and not one ring write.
func TestTapeSummaryOnlyMatchesFull(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		var directBatches, tapeBatches [][]Result
		direct := New(64)
		direct.SetFlush(recordBatches(&directBatches))
		applyOps(direct, rand.New(rand.NewSource(seed)), 200)
		direct.Flush()

		watched, folded := New(64), New(64)
		watched.SetFlush(recordBatches(&tapeBatches))
		applyOps(summed{NewTape(watched)}, rand.New(rand.NewSource(seed)), 200)
		applyOps(summed{NewTape(folded)}, rand.New(rand.NewSource(seed)), 200)
		watched.Flush()

		want := Summarize([]*Buffer{direct})
		if got := Summarize([]*Buffer{watched}); got != want {
			t.Fatalf("seed %d: watched tape summary %+v, direct %+v", seed, got, want)
		}
		if !sameRing(direct, watched) {
			t.Fatalf("seed %d: watched tape's ring slots differ from direct", seed)
		}
		if !reflect.DeepEqual(tapeBatches, directBatches) {
			t.Fatalf("seed %d: watched tape's flush batches differ from direct", seed)
		}
		if got := Summarize([]*Buffer{folded}); got != want {
			t.Fatalf("seed %d: summary-only tape folds %+v, direct %+v", seed, got, want)
		}
		if folded.pos != 0 {
			t.Fatalf("seed %d: summary-only tape moved the ring cursor to %d", seed, folded.pos)
		}
	}
}

// TestTapeEmptyRunsSkipped mirrors Buffer behaviour: zero-length runs are
// no-ops, with a consumer and without.
func TestTapeEmptyRunsSkipped(t *testing.T) {
	for _, consumer := range []bool{false, true} {
		b := New(8)
		if consumer {
			b.SetFlush(func([]Result) { t.Error("an empty run reached the consumer") })
		}
		tape := NewTape(b)
		tape.PushRun(1, nil, 2, 0)
		tape.PushRunS(3, 4, nil, 0)
		tape.PushRun(5, []relation.Payload{}, 6, 0)
		b.Flush()
		if b.Count() != 0 || b.Checksum() != 0 || b.pos != 0 {
			t.Fatalf("consumer=%v: empty runs left count %d, checksum %d, cursor %d", consumer, b.Count(), b.Checksum(), b.pos)
		}
	}
}

// zipfRuns returns the runs a probe would hand out on a zipf-theta
// relation of n tuples: one run per distinct key holding that key's
// payloads, in order of first appearance, plus an empty run and a
// one-element run. At theta 1.2 one run takes most of the tuples.
func zipfRuns(t *testing.T, n int, theta float64, seed int64) [][]relation.Payload {
	t.Helper()
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rel := g.NewRelation(n, 1)
	var order []relation.Key
	byKey := map[relation.Key][]relation.Payload{}
	for _, tp := range rel.Tuples {
		if _, ok := byKey[tp.Key]; !ok {
			order = append(order, tp.Key)
		}
		byKey[tp.Key] = append(byKey[tp.Key], tp.Payload)
	}
	runs := [][]relation.Payload{nil, {relation.Payload(seed)}}
	for _, k := range order {
		runs = append(runs, byKey[k])
	}
	return runs
}

// TestTapeSummaryOnlyMatchesRecordingOnZipfRuns pushes the runs of zipf
// 0–1.2 relations, each through PushRun and through PushRunS, into a
// buffer directly and through a tape into a buffer without a consumer,
// with the sum its emitter would compute. The tape's fold must leave the
// count and checksum the direct pushes do, from the one-element run up to
// a hot key's run that holds most of the tuples.
func TestTapeSummaryOnlyMatchesRecordingOnZipfRuns(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 1.0, 1.2} {
		for seed := int64(1); seed <= 3; seed++ {
			runs := zipfRuns(t, 2000, theta, seed)
			rng := rand.New(rand.NewSource(seed))
			direct, folded := New(64), New(64)
			tape := NewTape(folded)
			for _, run := range runs {
				k, p := relation.Key(rng.Uint32()), relation.Payload(rng.Uint32())
				s := PayloadSum(run)
				tape.PushRun(k, run, p, s)
				direct.PushRun(k, run, p)
				tape.PushRunS(k+1, p, run, s)
				direct.PushRunS(k+1, p, run)
			}
			want := Summarize([]*Buffer{direct})
			if got := Summarize([]*Buffer{folded}); got != want {
				t.Fatalf("theta %.1f seed %d: summary-only tape folds %+v, direct pushes %+v", theta, seed, got, want)
			}
		}
	}
}
