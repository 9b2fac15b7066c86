package outbuf

import (
	"testing"
	"testing/quick"

	"skewjoin/internal/relation"
)

// runWriter is the emission API of a Buffer, and of a Tape through
// summed, so one operation stream can drive either.
type runWriter interface {
	PushRun(k relation.Key, rps []relation.Payload, ps relation.Payload)
	PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload)
}

// summed adapts a Tape to runWriter, taking each run's payload sum as an
// emitter does before it pushes.
type summed struct{ *Tape }

func (w summed) PushRun(k relation.Key, rps []relation.Payload, ps relation.Payload) {
	w.Tape.PushRun(k, rps, ps, PayloadSum(rps))
}

func (w summed) PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload) {
	w.Tape.PushRunS(k, pr, sps, PayloadSum(sps))
}

// push1 emits one result as a run of one.
func push1(w runWriter, k relation.Key, pr, ps relation.Payload) {
	w.PushRun(k, []relation.Payload{pr}, ps)
}

// ref1 emits one result through the reference model, the comparison side
// of the tests that check a run against one-result runs.
func ref1(b *Buffer, k relation.Key, pr, ps relation.Payload) {
	refPushRun(b, k, []relation.Payload{pr}, ps)
}

func TestPushCountsAndChecksum(t *testing.T) {
	b := New(8)
	var want uint64
	for i := 0; i < 100; i++ {
		k := relation.Key(i * 7)
		pr := relation.Payload(i)
		ps := relation.Payload(i * 3)
		push1(b, k, pr, ps)
		want += ChecksumTerm(k, pr, ps)
	}
	if b.Count() != 100 {
		t.Errorf("count = %d", b.Count())
	}
	if b.Checksum() != want {
		t.Errorf("checksum = %d, want %d", b.Checksum(), want)
	}
}

func TestRingOverwritesWhenFull(t *testing.T) {
	b := New(4)
	for i := 0; i < 10; i++ {
		push1(b, relation.Key(i), 0, 0)
	}
	if b.Count() != 10 {
		t.Errorf("count = %d, want 10 despite overwrites", b.Count())
	}
	last := b.Last(4)
	if len(last) != 4 {
		t.Fatalf("Last returned %d results", len(last))
	}
	for i, r := range last {
		if want := relation.Key(6 + i); r.Key != want {
			t.Errorf("last[%d].Key = %d, want %d", i, r.Key, want)
		}
	}
}

func TestLastFewerThanRequested(t *testing.T) {
	b := New(16)
	push1(b, 1, 2, 3)
	push1(b, 4, 5, 6)
	last := b.Last(10)
	if len(last) != 2 {
		t.Fatalf("Last(10) returned %d results", len(last))
	}
	if last[0].Key != 1 || last[1].Key != 4 {
		t.Errorf("Last order wrong: %+v", last)
	}
}

// sameRing reports whether two buffers hold identical ring slots at the
// same cursor.
func sameRing(a, b *Buffer) bool {
	if a.pos != b.pos || len(a.ring) != len(b.ring) {
		return false
	}
	for i := range a.ring {
		if a.ring[i] != b.ring[i] {
			return false
		}
	}
	return true
}

func TestPushRunEquivalentToPushes(t *testing.T) {
	rps := []relation.Payload{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190}
	a := New(16)
	for _, pr := range rps {
		ref1(a, 99, pr, 7)
	}
	b := New(16)
	b.PushRun(99, rps, 7)
	if a.Count() != b.Count() || a.Checksum() != b.Checksum() {
		t.Errorf("PushRun diverges: (%d,%d) vs (%d,%d)", a.Count(), a.Checksum(), b.Count(), b.Checksum())
	}
	// A run longer than the ring wraps it: the slots must agree too.
	if !sameRing(a, b) {
		t.Error("PushRun wrote different ring slots than one-result runs")
	}
}

func TestPushRunSEquivalentToPushes(t *testing.T) {
	sps := []relation.Payload{1, 2, 3, 4}
	a := New(16)
	for _, ps := range sps {
		ref1(a, 5, 77, ps)
	}
	b := New(16)
	b.PushRunS(5, 77, sps)
	if a.Count() != b.Count() || a.Checksum() != b.Checksum() {
		t.Errorf("PushRunS diverges: (%d,%d) vs (%d,%d)", a.Count(), a.Checksum(), b.Count(), b.Checksum())
	}
	if !sameRing(a, b) {
		t.Error("PushRunS wrote different ring slots than one-result runs")
	}
}

func TestPushRunEmpty(t *testing.T) {
	b := New(4)
	b.PushRun(1, nil, 2)
	b.PushRunS(1, 2, nil)
	b.PushRun(1, []relation.Payload{}, 2)
	if b.Count() != 0 || b.Checksum() != 0 || b.pos != 0 {
		t.Errorf("empty runs changed state: %d, %d", b.Count(), b.Checksum())
	}
}

func TestMergeAndSummarize(t *testing.T) {
	a, b := New(4), New(4)
	push1(a, 1, 2, 3)
	push1(b, 4, 5, 6)
	push1(b, 7, 8, 9)
	sum := Summarize([]*Buffer{a, b})
	if sum.Count != 3 {
		t.Errorf("count = %d", sum.Count)
	}
	want := ChecksumTerm(1, 2, 3) + ChecksumTerm(4, 5, 6) + ChecksumTerm(7, 8, 9)
	if sum.Checksum != want {
		t.Errorf("checksum = %d, want %d", sum.Checksum, want)
	}
	a.Merge(b)
	if a.Count() != 3 || a.Checksum() != want {
		t.Errorf("Merge: count %d checksum %d", a.Count(), a.Checksum())
	}
}

func TestChecksumOrderIndependent(t *testing.T) {
	a, b := New(8), New(8)
	push1(a, 1, 2, 3)
	push1(a, 4, 5, 6)
	push1(b, 4, 5, 6)
	push1(b, 1, 2, 3)
	if a.Checksum() != b.Checksum() {
		t.Error("checksum depends on order")
	}
}

func TestDefaultCapacity(t *testing.T) {
	b := New(0)
	for i := 0; i < DefaultCapacity+10; i++ {
		push1(b, relation.Key(i), 0, 0)
	}
	if b.Count() != DefaultCapacity+10 {
		t.Errorf("count = %d", b.Count())
	}
}

func TestFlushDeliversEveryResultExactlyOnce(t *testing.T) {
	b := New(8)
	var delivered []Result
	b.SetFlush(func(batch []Result) {
		delivered = append(delivered, batch...)
	})
	for i := 0; i < 19; i++ {
		push1(b, relation.Key(i), relation.Payload(i), 0)
	}
	b.PushRun(99, []relation.Payload{1, 2, 3, 4, 5}, 7)
	b.PushRunS(98, 6, []relation.Payload{8, 9})
	b.PushRun(97, []relation.Payload{10, 11, 12}, 13)
	b.Flush()
	want := int(b.Count())
	if len(delivered) != want {
		t.Fatalf("delivered %d results, want %d", len(delivered), want)
	}
	// Order within the stream is the emission order.
	for i := 0; i < 19; i++ {
		if delivered[i].Key != relation.Key(i) {
			t.Fatalf("delivered[%d].Key = %d", i, delivered[i].Key)
		}
	}
	if delivered[19].Key != 99 || delivered[24].Key != 98 || delivered[26].Key != 97 {
		t.Errorf("run results out of order: %+v", delivered[19:])
	}
}

func TestFlushNoConsumerIsOverwrite(t *testing.T) {
	b := New(4)
	for i := 0; i < 9; i++ {
		push1(b, relation.Key(i), 0, 0)
	}
	b.Flush() // no-op without a consumer
	if b.Count() != 9 {
		t.Errorf("count = %d", b.Count())
	}
}

func TestFlushEmptyTail(t *testing.T) {
	b := New(4)
	calls := 0
	b.SetFlush(func(batch []Result) { calls++ })
	for i := 0; i < 8; i++ { // exactly two full rings
		push1(b, 1, 2, 3)
	}
	b.Flush()
	if calls != 2 {
		t.Errorf("flush called %d times, want 2 (no empty tail delivery)", calls)
	}
}

// TestPushRunFlushDeliversEveryResult: runs longer and shorter than the
// ring, spanning several wraps, must reach the consumer exactly once each
// and in emission order.
func TestPushRunFlushDeliversEveryResult(t *testing.T) {
	b := New(8)
	var seen []Result
	b.SetFlush(func(batch []Result) { seen = append(seen, batch...) })
	var want []Result
	emit := func(k relation.Key, n int) {
		rps := make([]relation.Payload, n)
		for i := range rps {
			rps[i] = relation.Payload(int(k)*100 + i)
			want = append(want, Result{Key: k, PayloadR: rps[i], PayloadS: relation.Payload(k)})
		}
		b.PushRun(k, rps, relation.Payload(k))
	}
	emit(1, 20) // 2.5 rings
	emit(2, 3)
	emit(3, 30)
	b.Flush()
	if len(seen) != len(want) {
		t.Fatalf("consumer saw %d results, want %d", len(seen), len(want))
	}
	for i := range seen {
		if seen[i] != want[i] {
			t.Fatalf("result %d: %+v, want %+v", i, seen[i], want[i])
		}
	}
	if b.Count() != uint64(len(want)) {
		t.Errorf("count = %d", b.Count())
	}
}

func TestQuickRunEquivalence(t *testing.T) {
	// Property: a run is indistinguishable from one-result runs through
	// the reference model for any key/payload values, in its count and
	// checksum and in every ring slot. The generated runs hold up to 49
	// payloads, so they reach both emit paths of an 8-slot ring.
	f := func(k uint32, common uint32, payloads []uint32) bool {
		a, b, c := New(8), New(8), New(8)
		ps := make([]relation.Payload, len(payloads))
		for i, p := range payloads {
			ps[i] = relation.Payload(p)
			ref1(a, relation.Key(k), relation.Payload(p), relation.Payload(common))
		}
		b.PushRun(relation.Key(k), ps, relation.Payload(common))
		if a.Count() != b.Count() || a.Checksum() != b.Checksum() || !sameRing(a, b) {
			return false
		}
		a2 := New(8)
		for _, p := range ps {
			refPushRunS(a2, relation.Key(k), relation.Payload(common), []relation.Payload{p})
		}
		c.PushRunS(relation.Key(k), relation.Payload(common), ps)
		return a2.Count() == c.Count() && a2.Checksum() == c.Checksum() && sameRing(a2, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
