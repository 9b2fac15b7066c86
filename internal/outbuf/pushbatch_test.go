package outbuf

import (
	"testing"

	"skewjoin/internal/relation"
)

// A batch here is a slice of results emitted the way a probe emits them:
// each maximal run sharing one key and S payload goes out as one run. These
// tests check that a batch emitted as runs cannot be told apart from the
// same results emitted one at a time.

// batchOf returns n results in runs of three that share key and S payload.
func batchOf(n int) []Result {
	rs := make([]Result, n)
	for i := range rs {
		g := i / 3
		rs[i] = Result{
			Key:      relation.Key(g * 13),
			PayloadR: relation.Payload(i * 7),
			PayloadS: relation.Payload(g * 3),
		}
	}
	return rs
}

// pushBatch emits rs as maximal runs, each a slice of one payload array,
// as a probe hands out slices of its build table.
func pushBatch(w runWriter, rs []Result) {
	payloads := make([]relation.Payload, len(rs))
	for i := range rs {
		payloads[i] = rs[i].PayloadR
	}
	for i := 0; i < len(rs); {
		j := i
		for j < len(rs) && rs[j].Key == rs[i].Key && rs[j].PayloadS == rs[i].PayloadS {
			j++
		}
		w.PushRun(rs[i].Key, payloads[i:j:j], rs[i].PayloadS)
		i = j
	}
}

func TestPushBatchEquivalentToPushes(t *testing.T) {
	rs := batchOf(37)
	a := New(16)
	for _, r := range rs {
		ref1(a, r.Key, r.PayloadR, r.PayloadS)
	}
	direct := New(16)
	pushBatch(direct, rs)
	watched, folded := New(16), New(16)
	watched.SetFlush(func([]Result) {})
	pushBatch(summed{NewTape(watched)}, rs)
	pushBatch(summed{NewTape(folded)}, rs)
	for _, c := range []struct {
		name string
		b    *Buffer
		ring bool // whether the ring is written, not just summarised
	}{{"buffer", direct, true}, {"tape to a consumer", watched, true}, {"tape fold", folded, false}} {
		if a.Count() != c.b.Count() || a.Checksum() != c.b.Checksum() {
			t.Errorf("%s: batch diverges: (%d,%d) vs (%d,%d)", c.name, a.Count(), a.Checksum(), c.b.Count(), c.b.Checksum())
		}
		// 37 results wrap the 16-slot ring twice: the slots must agree too.
		if c.ring && !sameRing(a, c.b) {
			t.Errorf("%s: batch wrote different ring slots than one-result runs", c.name)
		}
	}
}

func TestPushBatchEmpty(t *testing.T) {
	b := New(4)
	calls := 0
	b.SetFlush(func([]Result) { calls++ })
	pushBatch(b, batchOf(4)) // leaves the cursor on a ring boundary
	count, sum, pos := b.Count(), b.Checksum(), b.pos
	pushBatch(b, nil)
	pushBatch(b, []Result{})
	b.PushRun(1, nil, 2)
	b.PushRunS(1, 2, []relation.Payload{})
	if b.Count() != count || b.Checksum() != sum || b.pos != pos {
		t.Errorf("empty batches changed state: count %d→%d, checksum %d→%d, pos %d→%d",
			count, b.Count(), sum, b.Checksum(), pos, b.pos)
	}
	b.Flush()
	if calls != 1 {
		t.Errorf("flush called %d times, want 1 (empty batches at a wrap deliver nothing)", calls)
	}

	folded := New(8)
	tape := NewTape(folded)
	pushBatch(summed{tape}, nil)
	tape.PushRun(1, []relation.Payload{}, 2, 0)
	tape.PushRunS(1, 2, []relation.Payload{}, 0)
	if folded.Count() != 0 || folded.Checksum() != 0 {
		t.Errorf("empty batch folded: count %d, checksum %d", folded.Count(), folded.Checksum())
	}
}

func TestPushBatchInterleavesWithPush(t *testing.T) {
	rs := batchOf(12)
	a, b := New(8), New(8)
	for _, r := range rs {
		ref1(a, r.Key, r.PayloadR, r.PayloadS)
	}
	// The batches start and end inside runs of batchOf, so each splits a run.
	push1(b, rs[0].Key, rs[0].PayloadR, rs[0].PayloadS)
	pushBatch(b, rs[1:7])
	push1(b, rs[7].Key, rs[7].PayloadR, rs[7].PayloadS)
	pushBatch(b, rs[8:])
	if a.Count() != b.Count() || a.Checksum() != b.Checksum() {
		t.Errorf("interleaved batches diverge: (%d,%d) vs (%d,%d)",
			a.Count(), a.Checksum(), b.Count(), b.Checksum())
	}
	if !sameRing(a, b) {
		t.Error("interleaved batches wrote different ring slots than one-result runs")
	}
}
