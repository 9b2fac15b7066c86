package outbuf

import (
	"math/rand"
	"testing"

	"skewjoin/internal/relation"
)

// applyOps drives the same random operation sequence against any Writer.
// The runs are consecutive slices of one append-only payload array, as a
// probe hands out slices of its build table, so they stay intact until
// Replay; some are empty.
func applyOps(w Writer, rng *rand.Rand, nOps int) {
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
		applyOps(&tape, rand.New(rand.NewSource(seed)), 200)
		replayed := New(64)
		replayed.SetFlush(record(&replayBatches))
		tape.Replay(replayed)
		replayed.Flush()

		if tape.Count() != direct.Count() {
			t.Fatalf("seed %d: tape count %d, direct count %d", seed, tape.Count(), direct.Count())
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
	tape.PushRunS(1, 2, []relation.Payload{3})
	tape.PushRun(4, []relation.Payload{5, 6}, 7)
	tape.Reset()
	if tape.Count() != 0 || len(tape.ops) != 0 {
		t.Fatalf("after Reset: count %d, %d ops", tape.Count(), len(tape.ops))
	}
	tape.PushRun(8, []relation.Payload{9}, 10)

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
	tape.PushRun(1, nil, 2)
	tape.PushRunS(3, 4, nil)
	tape.PushRun(5, []relation.Payload{}, 6)
	if tape.Count() != 0 || len(tape.ops) != 0 {
		t.Fatalf("empty ops recorded: count %d, %d ops", tape.Count(), len(tape.ops))
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
		applyOps(&full, rand.New(rand.NewSource(seed)), 200)
		applyOps(&sum, rand.New(rand.NewSource(seed)), 200)
		if full.Count() != sum.Count() {
			t.Fatalf("seed %d: counts diverge: %d vs %d", seed, full.Count(), sum.Count())
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
	tape.PushRun(1, []relation.Payload{2}, 3)
	tape.Reset()
	if tape.Count() != 0 || tape.checksum != 0 {
		t.Fatalf("reset left count %d checksum %d", tape.Count(), tape.checksum)
	}
	tape.PushRun(1, []relation.Payload{2}, 3)
	if len(tape.ops) != 0 {
		t.Fatal("summary-only mode lost across Reset")
	}
}
