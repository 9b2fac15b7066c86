package outbuf

import (
	"math/rand"
	"reflect"
	"testing"

	"skewjoin/internal/relation"
)

// applyOps drives the same random operation sequence against any Writer.
// Scratch runs come from one slice refilled for every call, as a probe
// loop reuses its match scratch; retained runs stay intact until Replay.
func applyOps(w Writer, rng *rand.Rand, nOps int) {
	scratch := make([]relation.Payload, 8)
	for i := 0; i < nOps; i++ {
		op := rng.Intn(3)
		run := scratch[:rng.Intn(len(scratch)+1)]
		if op != 0 {
			run = make([]relation.Payload, len(run))
		}
		for j := range run {
			run[j] = relation.Payload(rng.Uint32())
		}
		switch op {
		case 0:
			w.PushScratchRun(relation.Key(rng.Uint32()), run, relation.Payload(rng.Uint32()))
		case 1:
			w.PushRun(relation.Key(rng.Uint32()), run, relation.Payload(rng.Uint32()))
		default:
			w.PushRunS(relation.Key(rng.Uint32()), relation.Payload(rng.Uint32()), run)
		}
	}
}

// TestTapeReplayMatchesDirect drives an identical random operation stream
// into a Buffer directly and into a Tape replayed into a second Buffer:
// ring contents, count, checksum and the flush batch sequence must all be
// bit-identical. This is the invariant that makes host-parallel GPU
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

// TestTapeScratchRunReplaysLikeBuffer issues the same scratch runs to a
// Buffer and to a Tape replayed into a second Buffer, overwriting the
// caller's scratch after every call as a probe loop does: a tape that
// kept the slice instead of copying it would replay the overwritten
// values. The runs cross the ring wrap. With a consumer the ring slots,
// cursor, count, checksum and flush batches must be bit-identical; in
// summary-only mode the count and checksum must be, and the tape must
// keep nothing.
func TestTapeScratchRunReplaysLikeBuffer(t *testing.T) {
	issue := func(w Writer) {
		scratch := make([]relation.Payload, 16)
		for i, n := range []int{3, 13, 1, 16, 0, 7, 11} {
			for j := range scratch[:n] {
				scratch[j] = relation.Payload(100*i + j)
			}
			w.PushScratchRun(relation.Key(i), scratch[:n], relation.Payload(i+50))
			for j := range scratch {
				scratch[j] = 0xdead
			}
		}
	}
	record := func(dst *[][]Result) FlushFunc {
		return func(batch []Result) { *dst = append(*dst, append([]Result(nil), batch...)) }
	}

	var directBatches, replayBatches [][]Result
	direct := New(8)
	direct.SetFlush(record(&directBatches))
	issue(direct)
	var tape Tape
	issue(&tape)
	replayed := New(8)
	replayed.SetFlush(record(&replayBatches))
	tape.Replay(replayed)
	if tape.Count() != direct.Count() || replayed.Count() != direct.Count() || replayed.Checksum() != direct.Checksum() {
		t.Fatalf("replay (%d, %d), tape count %d; direct (%d, %d)",
			replayed.Count(), replayed.Checksum(), tape.Count(), direct.Count(), direct.Checksum())
	}
	if !sameRing(direct, replayed) {
		t.Fatal("replayed ring slots differ from direct")
	}
	direct.Flush()
	replayed.Flush()
	if !reflect.DeepEqual(directBatches, replayBatches) {
		t.Fatalf("flush batches differ:\ndirect: %v\nreplay: %v", directBatches, replayBatches)
	}
	if len(directBatches) < 6 {
		t.Fatalf("%d flush batches; the runs should wrap the 8-slot ring at least 6 times", len(directBatches))
	}

	plain := New(8)
	issue(plain)
	var sum Tape
	sum.SummaryOnly()
	issue(&sum)
	if len(sum.ops) != 0 || len(sum.copies) != 0 {
		t.Fatalf("summary-only tape kept %d ops, %d payloads", len(sum.ops), len(sum.copies))
	}
	folded := New(8)
	sum.Replay(folded)
	if folded.Count() != plain.Count() || folded.Checksum() != plain.Checksum() {
		t.Fatalf("summary-only replay (%d, %d), direct (%d, %d)",
			folded.Count(), folded.Checksum(), plain.Count(), plain.Checksum())
	}
}

// TestTapeReset reuses a tape after Reset and checks the replay reflects
// only the second recording.
func TestTapeReset(t *testing.T) {
	var tape Tape
	tape.PushScratchRun(1, []relation.Payload{2}, 3)
	tape.PushRun(4, []relation.Payload{5, 6}, 7)
	tape.Reset()
	if tape.Count() != 0 || len(tape.ops) != 0 || len(tape.copies) != 0 {
		t.Fatalf("after Reset: count %d, %d ops, %d payloads", tape.Count(), len(tape.ops), len(tape.copies))
	}
	tape.PushScratchRun(8, []relation.Payload{9}, 10)

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
	tape.PushScratchRun(5, nil, 6)
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
		if len(sum.ops) != 0 || len(sum.copies) != 0 {
			t.Fatalf("seed %d: summary-only tape retained records: %d ops, %d payloads",
				seed, len(sum.ops), len(sum.copies))
		}
	}
}

// TestTapeSummaryOnlyReset: Reset keeps the mode and clears the scalars.
func TestTapeSummaryOnlyReset(t *testing.T) {
	var tape Tape
	tape.SummaryOnly()
	tape.PushScratchRun(1, []relation.Payload{2}, 3)
	tape.Reset()
	if tape.Count() != 0 || tape.checksum != 0 {
		t.Fatalf("reset left count %d checksum %d", tape.Count(), tape.checksum)
	}
	tape.PushScratchRun(1, []relation.Payload{2}, 3)
	if len(tape.copies) != 0 {
		t.Fatal("summary-only mode lost across Reset")
	}
}
