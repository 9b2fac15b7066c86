package outbuf

import (
	"math/rand"
	"reflect"
	"testing"

	"skewjoin/internal/relation"
	"skewjoin/internal/zipf"
)

// applyOps drives the same random operation sequence into a Buffer or a
// Tape.
// The runs are consecutive slices of one append-only payload array, as a
// probe hands out slices of its build table, so they stay intact until
// Replay; some are empty.
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

// TestTapeReplayMatchesDirect drives an identical random operation stream
// into a Buffer directly and into a Tape replayed into a second Buffer:
// ring slots and cursor, count, checksum and the flush batch sequence must
// all be bit-identical; the runs wrap the 64-slot ring many times. This is the invariant that makes host-parallel GPU
// simulation reproducible: a block's tape replay is indistinguishable
// from the block having written to the shared buffer itself.
func TestTapeReplayMatchesDirect(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		var directBatches, replayBatches [][]Result
		record := func(dst *[][]Result) FlushFunc {
			return func(batch []Result) {
				cp := make([]Result, len(batch))
				copy(cp, batch)
				*dst = append(*dst, cp)
			}
		}

		direct := New(64)
		direct.SetFlush(record(&directBatches))
		applyOps(direct, rand.New(rand.NewSource(seed)), 200)
		direct.Flush()

		var tape Tape
		applyOps(summed{&tape}, rand.New(rand.NewSource(seed)), 200)
		replayed := New(64)
		replayed.SetFlush(record(&replayBatches))
		tape.Replay(replayed)
		replayed.Flush()

		if tape.count != direct.Count() {
			t.Fatalf("seed %d: tape count %d, direct count %d", seed, tape.count, direct.Count())
		}
		if !sameRing(direct, replayed) {
			t.Fatalf("seed %d: replayed ring slots differ from direct", seed)
		}
		ds, rs := Summarize([]*Buffer{direct}), Summarize([]*Buffer{replayed})
		if ds != rs {
			t.Fatalf("seed %d: direct summary %+v, replay summary %+v", seed, ds, rs)
		}
		if len(directBatches) != len(replayBatches) {
			t.Fatalf("seed %d: %d direct flush batches, %d replayed", seed, len(directBatches), len(replayBatches))
		}
		for i := range directBatches {
			if len(directBatches[i]) != len(replayBatches[i]) {
				t.Fatalf("seed %d: batch %d length %d vs %d", seed, i, len(directBatches[i]), len(replayBatches[i]))
			}
			for j := range directBatches[i] {
				if directBatches[i][j] != replayBatches[i][j] {
					t.Fatalf("seed %d: batch %d result %d: %+v vs %+v",
						seed, i, j, directBatches[i][j], replayBatches[i][j])
				}
			}
		}
	}
}

// TestTapeReset reuses a tape after Reset and checks the replay reflects
// only the second recording.
func TestTapeReset(t *testing.T) {
	var tape Tape
	tape.PushRunS(1, 2, []relation.Payload{3}, 3)
	tape.PushRun(4, []relation.Payload{5, 6}, 7, 11)
	tape.Reset()
	if tape.count != 0 || len(tape.ops) != 0 {
		t.Fatalf("after Reset: count %d, %d ops", tape.count, len(tape.ops))
	}
	tape.PushRun(8, []relation.Payload{9}, 10, 9)

	want := New(16)
	want.PushRun(8, []relation.Payload{9}, 10)
	got := New(16)
	tape.Replay(got)
	if gs, ws := Summarize([]*Buffer{got}), Summarize([]*Buffer{want}); gs != ws {
		t.Fatalf("replay after reset: %+v, want %+v", gs, ws)
	}
}

// TestTapeEmptyRunsSkipped mirrors Buffer behaviour: zero-length runs are
// no-ops and must not leave journal entries behind.
func TestTapeEmptyRunsSkipped(t *testing.T) {
	var tape Tape
	tape.PushRun(1, nil, 2, 0)
	tape.PushRunS(3, 4, nil, 0)
	tape.PushRun(5, []relation.Payload{}, 6, 0)
	if tape.count != 0 || len(tape.ops) != 0 {
		t.Fatalf("empty ops recorded: count %d, %d ops", tape.count, len(tape.ops))
	}
}

// TestTapeSummaryOnlyMatchesFull drives an identical random operation
// stream into a full tape and a summary-only tape: after replaying both
// into fresh consumer-less buffers, count and checksum must agree — and
// the summary-only tape must have retained no records.
func TestTapeSummaryOnlyMatchesFull(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		var full, sum Tape
		sum.SummaryOnly()
		applyOps(summed{&full}, rand.New(rand.NewSource(seed)), 200)
		applyOps(summed{&sum}, rand.New(rand.NewSource(seed)), 200)
		if full.count != sum.count {
			t.Fatalf("seed %d: counts diverge: %d vs %d", seed, full.count, sum.count)
		}
		a, b := New(8), New(8)
		full.Replay(a)
		sum.Replay(b)
		if a.Count() != b.Count() || a.Checksum() != b.Checksum() {
			t.Fatalf("seed %d: summary-only replay (%d, %d) != full replay (%d, %d)",
				seed, b.Count(), b.Checksum(), a.Count(), a.Checksum())
		}
		if len(sum.ops) != 0 {
			t.Fatalf("seed %d: summary-only tape retained %d ops", seed, len(sum.ops))
		}
	}
}

// TestTapeSummaryOnlyReset: Reset keeps the mode and clears the scalars.
func TestTapeSummaryOnlyReset(t *testing.T) {
	var tape Tape
	tape.SummaryOnly()
	tape.PushRun(1, []relation.Payload{2}, 3, 2)
	tape.Reset()
	if tape.count != 0 || tape.checksum != 0 {
		t.Fatalf("reset left count %d checksum %d", tape.count, tape.checksum)
	}
	tape.PushRun(1, []relation.Payload{2}, 3, 2)
	if len(tape.ops) != 0 {
		t.Fatal("summary-only mode lost across Reset")
	}
}

// TestTapeTaggedReplayInterleaves records one random operation stream,
// in groups of consecutive tags, on two tapes that take turns: replaying,
// again and again, the tape whose next tag is lowest — the simulator's
// block-order merge — must reproduce the direct pushes' ring, summary and
// flush batches, with each tag's runs going to the buffer it picks.
func TestTapeTaggedReplayInterleaves(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		record := func(dst *[][]Result) FlushFunc {
			return func(batch []Result) {
				*dst = append(*dst, append([]Result(nil), batch...))
			}
		}
		var directBatches, replayBatches [2][][]Result
		var direct, replayed [2]*Buffer
		for i := range direct {
			direct[i], replayed[i] = New(32), New(32)
			direct[i].SetFlush(record(&directBatches[i]))
			replayed[i].SetFlush(record(&replayBatches[i]))
		}

		rng, replayRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		var tapes [2]Tape
		for tag := 0; tag < 40; tag++ {
			n := rng.Intn(4)
			replayRng.Intn(4)
			applyOps(direct[tag%2], rng, n)
			tape := &tapes[(tag/3)%2] // runs of three tags per tape
			tape.Tag(tag)
			applyOps(summed{tape}, replayRng, n)
		}
		for {
			var next *Tape
			lowest := 0
			for i := range tapes {
				if tag, ok := tapes[i].Next(); ok && (next == nil || tag < lowest) {
					next, lowest = &tapes[i], tag
				}
			}
			if next == nil {
				break
			}
			next.ReplayNext(replayed[lowest%2])
		}
		for i := range direct {
			direct[i].Flush()
			replayed[i].Flush()
			if !sameRing(direct[i], replayed[i]) {
				t.Fatalf("seed %d: buffer %d ring differs after the tagged replay", seed, i)
			}
			if ds, rs := Summarize([]*Buffer{direct[i]}), Summarize([]*Buffer{replayed[i]}); ds != rs {
				t.Fatalf("seed %d: buffer %d summary %+v, want %+v", seed, i, rs, ds)
			}
			if !reflect.DeepEqual(directBatches[i], replayBatches[i]) {
				t.Fatalf("seed %d: buffer %d flush batches differ", seed, i)
			}
		}
	}
}

// TestTapeResetDropsRuns: a reused tape must not keep the arrays of the
// runs it replayed alive, nor replay them again.
func TestTapeResetDropsRuns(t *testing.T) {
	var tape Tape
	tape.PushRun(1, []relation.Payload{2, 3}, 4, 5)
	tape.Replay(New(8))
	if _, ok := tape.Next(); ok {
		t.Fatal("replayed run still pending")
	}
	tape.Reset()
	if tape.ops[:1][0].run != nil {
		t.Fatal("Reset kept a replayed run's slice")
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
// recording tape and a summary-only tape, with the sum its emitter would
// compute. Replayed into buffers, the summary-only tape's count and
// checksum must equal the recording tape's and those of pushing the runs
// into a buffer directly.
func TestTapeSummaryOnlyMatchesRecordingOnZipfRuns(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 1.0, 1.2} {
		for seed := int64(1); seed <= 3; seed++ {
			runs := zipfRuns(t, 2000, theta, seed)
			rng := rand.New(rand.NewSource(seed))
			var rec, sum Tape
			sum.SummaryOnly()
			direct := New(64)
			for _, run := range runs {
				k, p := relation.Key(rng.Uint32()), relation.Payload(rng.Uint32())
				s := PayloadSum(run)
				rec.PushRun(k, run, p, s)
				sum.PushRun(k, run, p, s)
				direct.PushRun(k, run, p)
				rec.PushRunS(k+1, p, run, s)
				sum.PushRunS(k+1, p, run, s)
				direct.PushRunS(k+1, p, run)
			}
			replayed, folded := New(64), New(64)
			replayed.SetFlush(func([]Result) {})
			rec.Replay(replayed)
			sum.Replay(folded)
			want := Summarize([]*Buffer{direct})
			if got := Summarize([]*Buffer{replayed}); got != want {
				t.Fatalf("theta %.1f seed %d: recording tape replays %+v, direct pushes %+v", theta, seed, got, want)
			}
			if got := Summarize([]*Buffer{folded}); got != want {
				t.Fatalf("theta %.1f seed %d: summary-only tape folds %+v, direct pushes %+v", theta, seed, got, want)
			}
		}
	}
}
