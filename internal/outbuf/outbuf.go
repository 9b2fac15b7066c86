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
//
// Under skew most of the output leaves in long runs: one probing tuple
// meeting a hot key's many matches. PushRun and PushRunS write a run of
// at least segmentMin results as wrap-free segments — the ring from the
// cursor to its end, filled four results per step with no index mask —
// and shorter runs one masked write at a time. Both paths write every
// result, in the same slot and with the same flush batches, so the write
// work stays proportional to the output, as in the paper's model.
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

// segmentMin is the shortest run PushRun and PushRunS write as wrap-free
// segments; shorter runs keep the masked one-result loops, which cost
// less than a segment's set-up. BenchmarkEmit sets it: it is the shortest
// length from which no longer run is slower on the segment path
// (EXPERIMENTS.md, "Wrap-free emit of long runs").
const segmentMin = 24

// PushRun emits one result per R payload in rps, all matching the same
// S tuple (k, ps). It is the skew fast path of CSH and GSH — a skewed S
// tuple joined against the whole skewed R array with sequential reads and
// no per-result key comparison — and the emit of every probe that
// collects its matches first: the chained tables' walks (cbase-npj, SSJ),
// the simulated kernels' key-grouped runs and the sort-merge joins.
//
// A run of at least segmentMin results goes into the ring as wrap-free
// segments (see segments); a shorter one, one masked write at a time.
// Both write every result into the slot the other would, so the ring,
// Last and the flushed batches do not depend on the path.
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
	if len(rps) >= segmentMin {
		b.segments(k, ps, rps, false)
		return
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

// segments emits a run as PushRun does (PushRunS when runS is set): one
// result per payload of run, all sharing key k and the payload p. Each
// segment is the ring from the cursor to its end, trimmed to what is
// left of the run, so its fill loop needs no mask and no wrap test; a
// segment that ends at the wrap hands the full ring to the consumer, as
// the masked loops do when the cursor reaches a multiple of the
// capacity. Every result is still written: the emit work stays
// proportional to the output. The caller returns right after the call,
// so its short path saves no registers for it.
//
//skewlint:hotpath
func (b *Buffer) segments(k relation.Key, p relation.Payload, run []relation.Payload, runS bool) {
	total := uint64(len(run))
	var sum uint64
	for len(run) > 0 {
		seg := b.ring[b.pos&b.mask:]
		n := min(len(seg), len(run))
		if runS {
			sum += fillS(seg[:n], k, p, run[:n])
		} else {
			sum += fillR(seg[:n], k, run[:n], p)
		}
		run = run[n:]
		b.pos += n
		if b.pos&b.mask == 0 && b.onFlush != nil {
			b.onFlush(b.ring)
		}
	}
	cRun, cP := uint64(coefPayloadR), uint64(coefPayloadS)
	if runS {
		cRun, cP = coefPayloadS, coefPayloadR
	}
	b.count += total
	b.checksum += cRun*sum + total*(coefKey*uint64(k)+cP*uint64(p))
}

// fillR writes (k, rps[i], ps) into seg[i] for every i < len(rps), four
// results per step, and returns Σrps, kept as two partial sums so that
// consecutive adds do not wait on each other. seg is at least as long as
// rps. The loop indexes both slices rather than re-slicing them: each
// re-slice masks its pointer update, and that form measured slower than
// the masked one-result loop (EXPERIMENTS.md, "Wrap-free emit of long
// runs").
//
//skewlint:hotpath
func fillR(seg []Result, k relation.Key, rps []relation.Payload, ps relation.Payload) uint64 {
	var s0, s1 uint64
	seg = seg[:len(rps)]
	i := 0
	for ; i+3 < len(rps); i += 4 {
		p0, p1, p2, p3 := rps[i], rps[i+1], rps[i+2], rps[i+3]
		seg[i] = Result{Key: k, PayloadR: p0, PayloadS: ps}
		seg[i+1] = Result{Key: k, PayloadR: p1, PayloadS: ps}
		seg[i+2] = Result{Key: k, PayloadR: p2, PayloadS: ps}
		seg[i+3] = Result{Key: k, PayloadR: p3, PayloadS: ps}
		s0 += uint64(p0) + uint64(p2)
		s1 += uint64(p1) + uint64(p3)
	}
	for ; i < len(rps); i++ {
		seg[i] = Result{Key: k, PayloadR: rps[i], PayloadS: ps}
		s0 += uint64(rps[i])
	}
	return s0 + s1
}

// fillS is fillR for PushRunS's results (k, pr, sps[i]).
//
//skewlint:hotpath
func fillS(seg []Result, k relation.Key, pr relation.Payload, sps []relation.Payload) uint64 {
	var s0, s1 uint64
	seg = seg[:len(sps)]
	i := 0
	for ; i+3 < len(sps); i += 4 {
		p0, p1, p2, p3 := sps[i], sps[i+1], sps[i+2], sps[i+3]
		seg[i] = Result{Key: k, PayloadR: pr, PayloadS: p0}
		seg[i+1] = Result{Key: k, PayloadR: pr, PayloadS: p1}
		seg[i+2] = Result{Key: k, PayloadR: pr, PayloadS: p2}
		seg[i+3] = Result{Key: k, PayloadR: pr, PayloadS: p3}
		s0 += uint64(p0) + uint64(p2)
		s1 += uint64(p1) + uint64(p3)
	}
	for ; i < len(sps); i++ {
		seg[i] = Result{Key: k, PayloadR: pr, PayloadS: sps[i]}
		s0 += uint64(sps[i])
	}
	return s0 + s1
}

// PushMatches emits one result per entry of bucket whose key is k, in
// bucket order, all matching the same S tuple (k, ps). It compares each
// entry's key and writes the match straight into the ring, in one pass,
// as the paper's Cbase writes each result as its chain walk finds it
// (§III); the CPU join phase probes a compact table's bucket with it. It
// leaves the buffer exactly as PushRun over the bucket's k-payloads
// would, and like PushRun folds the checksum once per call.
//
//skewlint:hotpath
func (b *Buffer) PushMatches(k relation.Key, bucket []relation.Tuple, ps relation.Payload) {
	if sanitize.Enabled {
		b.checkRing()
	}
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

// PushRunS emits one result per S payload in sps, all matching the same
// R tuple (k, pr). This is GSH's skew-join fast path: one thread block per
// skewed R tuple streaming the skewed S array with coalesced accesses.
// Like PushRun, it writes a run of at least segmentMin results as
// wrap-free segments.
//
//skewlint:hotpath
func (b *Buffer) PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload) {
	if sanitize.Enabled {
		b.checkRing()
	}
	if len(sps) >= segmentMin {
		b.segments(k, pr, sps, true)
		return
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
