// Package outbuf implements the paper's join-output consumption model.
//
// In volcano-style query processing the join output is consumed by an upper
// operator, so the paper allocates one output buffer per CPU thread (or GPU
// thread block) and overwrites it when it is full (§III). Buffer reproduces
// that: every result tuple is written into a fixed-capacity ring, and when
// the ring wraps, old results are overwritten. The write work is therefore
// proportional to the output cardinality — the quantity that explodes under
// skew — without requiring O(output) memory.
//
// Because outputs are overwritten, algorithms are verified through two
// order-independent summaries maintained alongside the ring:
//
//   - Count: the exact number of result tuples emitted, and
//   - Checksum: a linear combination Σ (A·key + B·payloadR + C·payloadS)
//     over all emitted results (mod 2^64).
//
// The linear form makes the expected checksum computable in O(N) by the
// oracle package even when the output itself has billions of tuples.
package outbuf

import (
	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// Checksum coefficients. Odd constants so multiplication is invertible
// mod 2^64; any miscounted or altered result almost surely changes the sum.
const (
	coefKey      = 0x9e3779b97f4a7c15
	coefPayloadR = 0xc2b2ae3d27d4eb4f
	coefPayloadS = 0x165667b19e3779f9
)

// Result is one join output tuple: the join key plus both payloads.
type Result struct {
	Key      relation.Key
	PayloadR relation.Payload
	PayloadS relation.Payload
}

// Buffer is a fixed-capacity overwriting output ring owned by one worker
// (CPU thread or GPU thread block). It is not safe for concurrent use; each
// worker owns its buffer, as in the paper.
type Buffer struct {
	ring     []Result // power-of-two length
	mask     int
	pos      int // monotonically increasing; ring index is pos & mask
	count    uint64
	checksum uint64
	onFlush  FlushFunc
}

// FlushFunc consumes one full batch of results — the "upper level query
// operator" of the paper's volcano model. The slice is the buffer's ring
// and is overwritten after the call returns; consumers must not retain it.
type FlushFunc func(batch []Result)

// DefaultCapacity is the per-worker ring size used when callers pass 0.
// Small enough that the buffer stays cache-resident, large enough that the
// wrap bookkeeping is negligible.
const DefaultCapacity = 4096

// New returns a buffer with the given ring capacity, rounded up to a power
// of two (0 = DefaultCapacity). The power-of-two length lets the hot emit
// loops replace the wrap branch with a mask and drop bounds checks.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	capacity = hashfn.NextPow2(capacity)
	if sanitize.Enabled && capacity&(capacity-1) != 0 {
		sanitize.Failf("outbuf: ring capacity %d is not a power of two; pos&mask indexing would skip slots", capacity)
	}
	return &Buffer{ring: make([]Result, capacity), mask: capacity - 1}
}

// SetFlush installs a consumer that is handed every full ring batch (and
// the final partial batch via Flush). A nil consumer restores the plain
// overwrite-when-full behaviour.
func (b *Buffer) SetFlush(fn FlushFunc) { b.onFlush = fn }

// HasFlush reports whether a consumer is installed. Without one the
// record stream is unobservable (the ring overwrites and Flush is a
// no-op), which is what licenses Tape.SummaryOnly staging.
func (b *Buffer) HasFlush() bool { return b.onFlush != nil }

// Flush hands the not-yet-consumed tail of the ring to the consumer, if
// one is installed. Call it once after the producing phase finishes.
func (b *Buffer) Flush() {
	if b.onFlush == nil {
		return
	}
	if tail := b.pos & b.mask; tail > 0 {
		b.onFlush(b.ring[:tail])
	}
}

// Push emits one join result.
//
//skewlint:hotpath
func (b *Buffer) Push(k relation.Key, pr, ps relation.Payload) {
	if sanitize.Enabled {
		b.checkRing()
	}
	b.ring[b.pos&b.mask] = Result{Key: k, PayloadR: pr, PayloadS: ps}
	b.pos++
	b.count++
	b.checksum += coefKey*uint64(k) + coefPayloadR*uint64(pr) + coefPayloadS*uint64(ps)
	if b.pos&b.mask == 0 && b.onFlush != nil {
		b.onFlush(b.ring)
	}
}

// PushRun emits one result per R payload in rps, all matching the same
// S tuple (k, ps). This is the skew fast path of CSH and GSH: a skewed
// S tuple joined against the whole skewed R array with sequential reads and
// no per-result key comparison.
//
//skewlint:hotpath
func (b *Buffer) PushRun(k relation.Key, rps []relation.Payload, ps relation.Payload) {
	// The checksum is linear, so the whole run contributes
	// n·(A·k + C·ps) + B·Σrp — one multiply per run instead of three per
	// result. This is what makes the skew fast path genuinely cheap: the
	// inner loop is a sequential read, a buffer write and an add, with no
	// key comparison (§IV-A: CSH "avoids the cost of verifying if the R
	// and S keys match before generating every join result tuple").
	if sanitize.Enabled {
		b.checkRing()
	}
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

// PushBatch emits a staged batch of heterogeneous results in one call. A
// Tape replays its staged single results through it: one call,
// locals-cached ring cursor, and a single count/checksum update per batch
// instead of per result. The batch slice is the caller's scratch and is
// not retained.
//
//skewlint:hotpath
func (b *Buffer) PushBatch(rs []Result) {
	if sanitize.Enabled {
		b.checkRing()
	}
	ring := b.ring
	mask := b.mask
	pos := b.pos
	var sum uint64
	if b.onFlush == nil {
		for _, r := range rs {
			ring[pos&mask] = r
			pos++
			sum += coefKey*uint64(r.Key) + coefPayloadR*uint64(r.PayloadR) + coefPayloadS*uint64(r.PayloadS)
		}
	} else {
		for _, r := range rs {
			ring[pos&mask] = r
			pos++
			sum += coefKey*uint64(r.Key) + coefPayloadR*uint64(r.PayloadR) + coefPayloadS*uint64(r.PayloadS)
			if pos&mask == 0 {
				b.onFlush(ring)
			}
		}
	}
	b.pos = pos
	b.count += uint64(len(rs))
	b.checksum += sum
}

// PushRunS emits one result per S payload in sps, all matching the same
// R tuple (k, pr). This is GSH's skew-join fast path: one thread block per
// skewed R tuple streaming the skewed S array with coalesced accesses.
//
//skewlint:hotpath
func (b *Buffer) PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload) {
	if sanitize.Enabled {
		b.checkRing()
	}
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

// checkRing validates the ring geometry the masked-index emit loops rely
// on: a power-of-two ring with mask == len-1 and a non-negative cursor. A
// Buffer constructed by hand (not via New) with a non-power-of-two ring
// would silently overwrite a subset of slots and corrupt Last's output.
func (b *Buffer) checkRing() {
	if len(b.ring) == 0 || len(b.ring)&(len(b.ring)-1) != 0 || b.mask != len(b.ring)-1 {
		sanitize.Failf("outbuf: ring of %d slots with mask %#x violates the power-of-two ring geometry", len(b.ring), b.mask)
	}
	if b.pos < 0 {
		sanitize.Failf("outbuf: negative ring cursor %d", b.pos)
	}
}

// Count returns the number of results emitted so far.
func (b *Buffer) Count() uint64 { return b.count }

// Checksum returns the order-independent linear checksum of all results
// emitted so far.
func (b *Buffer) Checksum() uint64 { return b.checksum }

// Last returns up to n of the most recently emitted results, oldest first.
// Examples use it to show concrete output; n is capped by both the ring
// capacity and the emitted count.
func (b *Buffer) Last(n int) []Result {
	if uint64(n) > b.count {
		n = int(b.count)
	}
	if n > len(b.ring) {
		n = len(b.ring)
	}
	out := make([]Result, 0, n)
	for i := b.pos - n; i < b.pos; i++ {
		out = append(out, b.ring[i&b.mask])
	}
	return out
}

// Merge folds another buffer's summaries into b (ring contents are not
// merged; they are scratch). Used to combine per-worker buffers into one
// run-level summary.
func (b *Buffer) Merge(o *Buffer) {
	b.count += o.count
	b.checksum += o.checksum
}

// Summary is the verifiable outcome of a join run.
type Summary struct {
	Count    uint64
	Checksum uint64
}

// Summarize combines any number of per-worker buffers into a Summary.
func Summarize(bufs []*Buffer) Summary {
	var s Summary
	for _, b := range bufs {
		s.Count += b.count
		s.Checksum += b.checksum
	}
	return s
}

// ChecksumTerm returns the checksum contribution of a single result, so the
// oracle can compute expected checksums analytically.
func ChecksumTerm(k relation.Key, pr, ps relation.Payload) uint64 {
	return coefKey*uint64(k) + coefPayloadR*uint64(pr) + coefPayloadS*uint64(ps)
}

// ChecksumCoefficients exposes (A, B, C) for the oracle's closed-form
// expected-checksum computation.
func ChecksumCoefficients() (key, payloadR, payloadS uint64) {
	return coefKey, coefPayloadR, coefPayloadS
}
