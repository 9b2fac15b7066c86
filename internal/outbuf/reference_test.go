package outbuf

import (
	"fmt"
	"slices"
	"testing"

	"skewjoin/internal/relation"
)

// The reference model of the emit operations: one masked ring write per
// result, a flush each time the cursor reaches a multiple of the ring's
// capacity, and the checksum folded once per call. The emit tests and
// FuzzEmitMatchesReference compare Buffer against it, and BenchmarkEmit
// runs it as the baseline arm, so it keeps the plain and the consumer
// loops apart, as Buffer's loops for short runs do.

// refPushRun is the reference PushRun.
func refPushRun(b *Buffer, k relation.Key, rps []relation.Payload, ps relation.Payload) {
	ring := b.ring
	mask := b.mask
	pos := b.pos
	var prSum uint64
	if b.onFlush == nil {
		for _, pr := range rps {
			ring[pos&mask] = Result{Key: k, PayloadR: pr, PayloadS: ps}
			pos++
			prSum += uint64(pr)
		}
	} else {
		for _, pr := range rps {
			ring[pos&mask] = Result{Key: k, PayloadR: pr, PayloadS: ps}
			pos++
			prSum += uint64(pr)
			if pos&mask == 0 {
				b.onFlush(ring)
			}
		}
	}
	b.pos = pos
	n := uint64(len(rps))
	b.count += n
	b.checksum += coefPayloadR*prSum + n*(coefKey*uint64(k)+coefPayloadS*uint64(ps))
}

// refPushRunS is the reference PushRunS.
func refPushRunS(b *Buffer, k relation.Key, pr relation.Payload, sps []relation.Payload) {
	ring := b.ring
	mask := b.mask
	pos := b.pos
	var psSum uint64
	if b.onFlush == nil {
		for _, ps := range sps {
			ring[pos&mask] = Result{Key: k, PayloadR: pr, PayloadS: ps}
			pos++
			psSum += uint64(ps)
		}
	} else {
		for _, ps := range sps {
			ring[pos&mask] = Result{Key: k, PayloadR: pr, PayloadS: ps}
			pos++
			psSum += uint64(ps)
			if pos&mask == 0 {
				b.onFlush(ring)
			}
		}
	}
	b.pos = pos
	n := uint64(len(sps))
	b.count += n
	b.checksum += coefPayloadS*psSum + n*(coefKey*uint64(k)+coefPayloadR*uint64(pr))
}

// refPushMatches is the reference PushMatches.
func refPushMatches(b *Buffer, k relation.Key, bucket []relation.Tuple, ps relation.Payload) {
	ring := b.ring
	mask := b.mask
	pos := b.pos
	var prSum uint64
	if b.onFlush == nil {
		for _, e := range bucket {
			if e.Key == k {
				ring[pos&mask] = Result{Key: k, PayloadR: e.Payload, PayloadS: ps}
				pos++
				prSum += uint64(e.Payload)
			}
		}
	} else {
		for _, e := range bucket {
			if e.Key == k {
				ring[pos&mask] = Result{Key: k, PayloadR: e.Payload, PayloadS: ps}
				pos++
				prSum += uint64(e.Payload)
				if pos&mask == 0 {
					b.onFlush(ring)
				}
			}
		}
	}
	n := uint64(pos - b.pos)
	b.pos = pos
	b.count += n
	b.checksum += coefPayloadR*prSum + n*(coefKey*uint64(k)+coefPayloadS*uint64(ps))
}

// emitPair is one Buffer under test and its reference twin, each with
// the flushed batches it has delivered so far when a consumer is on.
type emitPair struct {
	got, want               *Buffer
	gotBatches, wantBatches [][]Result
}

func newEmitPair(capacity int, consume bool) *emitPair {
	p := &emitPair{got: New(capacity), want: New(capacity)}
	if consume {
		p.got.SetFlush(recordBatches(&p.gotBatches))
		p.want.SetFlush(recordBatches(&p.wantBatches))
	}
	return p
}

// compare reports the first observable difference between the buffer
// under test and the reference: cursor and ring slots, Count, Checksum,
// Last(n) for every n up to the capacity (up to lastStride, and the last
// lastStride, on rings above 2·lastStride slots), and every flushed
// batch in order. It returns "" when there is none.
func (p *emitPair) compare() string {
	got, want := p.got, p.want
	if got.pos != want.pos {
		return fmt.Sprintf("cursor %d, reference %d", got.pos, want.pos)
	}
	for i := range want.ring {
		if got.ring[i] != want.ring[i] {
			return fmt.Sprintf("ring slot %d holds %+v, reference %+v", i, got.ring[i], want.ring[i])
		}
	}
	if got.Count() != want.Count() || got.Checksum() != want.Checksum() {
		return fmt.Sprintf("count %d checksum %#x, reference %d %#x", got.Count(), got.Checksum(), want.Count(), want.Checksum())
	}
	for n := 0; n <= len(want.ring); n++ {
		if n == lastStride && len(want.ring) > 2*lastStride {
			n = len(want.ring) - lastStride
		}
		if g, w := got.Last(n), want.Last(n); !slices.Equal(g, w) {
			return fmt.Sprintf("Last(%d) = %v, reference %v", n, g, w)
		}
	}
	if !slices.EqualFunc(p.gotBatches, p.wantBatches, slices.Equal) {
		return fmt.Sprintf("%d flushed batches, reference %d (or their contents differ)", len(p.gotBatches), len(p.wantBatches))
	}
	return ""
}

// lastStride bounds the Last(n) calls compare makes on a large ring: the
// lastStride shortest and longest windows. Each call copies n results,
// so every n of a 4,096-slot ring would copy 8M per comparison; the
// windows in between read the same slots.
const lastStride = 64

// payloads returns n distinct payloads starting at base.
func payloads(base, n int) []relation.Payload {
	run := make([]relation.Payload, n)
	for i := range run {
		run[i] = relation.Payload(base + i)
	}
	return run
}

// emitLengths returns the run lengths the table test pushes into a ring
// of the given capacity: every length up to three rings for the small
// rings, the lengths around each wrap for the large one, and the lengths
// around segmentMin for both.
func emitLengths(capacity int) []int {
	lengths := []int{segmentMin - 1, segmentMin, segmentMin + 1}
	if capacity <= 16 {
		for n := 0; n <= 3*capacity; n++ {
			lengths = append(lengths, n)
		}
		return lengths
	}
	return append(lengths, 0, 1, 2, 3, 4, 5, capacity-1, capacity, capacity+1, 2*capacity+3, 3*capacity)
}

// emitOffsets returns the cursor positions a run starts from: every slot
// of the small rings, and the slots at either end of the large one.
func emitOffsets(capacity int) []int {
	if capacity > 16 {
		return []int{0, 1, capacity - segmentMin, capacity - 1}
	}
	offsets := make([]int, capacity)
	for i := range offsets {
		offsets[i] = i
	}
	return offsets
}

// TestEmitMatchesReference pushes one run through PushRun or PushRunS and
// through the reference model, from every start offset of rings of 1–16
// slots and from both ends of a 4,096-slot ring, at run lengths from 0 to
// three rings and around segmentMin, with and without a flush consumer.
// Before the run, each pair of buffers is filled through the reference
// past one wrap, so every slot holds an earlier result a misplaced write
// would change. Everything a caller can observe must agree.
func TestEmitMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 4, 8, 16, 4096} {
		for _, runS := range []bool{false, true} {
			for _, consume := range []bool{false, true} {
				name := fmt.Sprintf("cap%d/runS=%v/consumer=%v", capacity, runS, consume)
				t.Run(name, func(t *testing.T) {
					for _, off := range emitOffsets(capacity) {
						for _, n := range emitLengths(capacity) {
							p := newEmitPair(capacity, consume)
							fill := payloads(1<<20, capacity+off)
							refPushRun(p.got, 3, fill, 4)
							refPushRun(p.want, 3, fill, 4)
							run := payloads(1, n)
							if runS {
								p.got.PushRunS(7, 9, run)
								refPushRunS(p.want, 7, 9, run)
							} else {
								p.got.PushRun(7, run, 9)
								refPushRun(p.want, 7, run, 9)
							}
							p.got.Flush()
							p.want.Flush()
							if diff := p.compare(); diff != "" {
								t.Fatalf("offset %d, run of %d: %s", off, n, diff)
							}
						}
					}
				})
			}
		}
	}
}

// TestEmitAllocFree: PushRun and PushRunS allocate nothing on either
// path — runs shorter than segmentMin and runs that wrap the ring as
// segments — on a plain ring and with a consumer.
func TestEmitAllocFree(t *testing.T) {
	short, long := payloads(1, segmentMin-1), payloads(1, 3*16+5)
	for _, consume := range []bool{false, true} {
		b := New(16)
		if consume {
			rows := 0
			b.SetFlush(func(batch []Result) { rows += len(batch) })
		}
		for name, run := range map[string][]relation.Payload{"short": short, "long": long} {
			allocs := testing.AllocsPerRun(20, func() {
				b.PushRun(1, run, 2)
				b.PushRunS(1, 2, run)
			})
			if allocs != 0 {
				t.Errorf("consumer %v, %s runs: %.1f allocations per pass, want 0", consume, name, allocs)
			}
		}
	}
}

// fuzzRunLength maps a byte to a run or bucket length, half the time
// within 8 of segmentMin and otherwise 0–127, two rings of the largest
// capacity the fuzz target draws.
func fuzzRunLength(c byte) int {
	if c < 128 {
		return segmentMin - 8 + int(c%17)
	}
	return int(c) - 128
}

// FuzzEmitMatchesReference drives a sequence of PushRun, PushRunS and
// PushMatches calls through a Buffer and through the reference model.
// The first byte picks the ring's capacity (2^0–2^6) and whether a flush
// consumer is on; every further three bytes are one call: the operation
// and key, the run's or bucket's length, and the share of bucket entries
// that carry the probed key. After each call the cursor, Count and
// Checksum must agree; after the final Flush, everything compare checks.
func FuzzEmitMatchesReference(f *testing.F) {
	f.Add([]byte{0x80, 0, 8, 0, 1, 9, 0, 2, 10, 255})
	f.Add([]byte{0x86, 0, 200, 0, 1, 255, 0, 2, 200, 128, 5, 7, 0})
	f.Add([]byte{0x05, 3, 7, 0, 4, 8, 0, 5, 9, 200, 6, 100, 90, 7, 130, 30})
	f.Add([]byte{0x84, 2, 16, 255, 5, 150, 255, 8, 17, 0, 11, 40, 128, 14, 190, 255})
	f.Add([]byte{0x03, 0, 8, 0, 0, 8, 0, 0, 8, 0, 1, 7, 0, 1, 9, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		capacity := 1 << (prog[0] % 7)
		p := newEmitPair(capacity, prog[0]&0x80 != 0)
		base := 1
		for i := 1; i+2 < len(prog); i += 3 {
			op, n, share := prog[i], fuzzRunLength(prog[i+1]), prog[i+2]
			k, other := relation.Key(op/3), relation.Payload(op)
			run := payloads(base, n)
			base += n
			switch op % 3 {
			case 0:
				p.got.PushRun(k, run, other)
				refPushRun(p.want, k, run, other)
			case 1:
				p.got.PushRunS(k, other, run)
				refPushRunS(p.want, k, other, run)
			default:
				bucket := make([]relation.Tuple, n)
				for j := range bucket {
					key := k + 1 + relation.Key(j%3)
					if byte(j*151+int(share)) < share {
						key = k
					}
					bucket[j] = relation.Tuple{Key: key, Payload: run[j]}
				}
				p.got.PushMatches(k, bucket, other)
				refPushMatches(p.want, k, bucket, other)
			}
			if p.got.pos != p.want.pos || p.got.Count() != p.want.Count() || p.got.Checksum() != p.want.Checksum() {
				t.Fatalf("call %d (op %d, length %d): cursor %d count %d checksum %#x, reference %d %d %#x",
					i/3, op%3, n, p.got.pos, p.got.Count(), p.got.Checksum(), p.want.pos, p.want.Count(), p.want.Checksum())
			}
		}
		p.got.Flush()
		p.want.Flush()
		if diff := p.compare(); diff != "" {
			t.Fatal(diff)
		}
	})
}
