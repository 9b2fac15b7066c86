package outbuf

import (
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// tapeOp is one recorded run: PushRunS's when runS is set, else PushRun's.
type tapeOp struct {
	runS bool
	key  relation.Key
	p    relation.Payload   // the payload every result of the run shares
	tag  int32              // Tag at the time of the push
	run  []relation.Payload // the retained caller slice
}

// Tape records runs of results so they can be replayed into a Buffer
// later, reproducing exactly the ring writes, count, checksum and flush
// batches the same runs would have produced if pushed directly. The GPU
// simulator gives every host worker of a kernel launch its own tapes and
// replays them in block-index order, so any worker interleaving produces
// the output of blocks running one after another.
//
// PushRun and PushRunS retain the payload slice instead of copying it, so
// each call costs O(1) and the tape holds one op per run — a probe's run
// per probing tuple — not one payload per result: its memory follows the
// block's inputs, not its output. Callers keep those slices intact until
// the replay: a probe's matches are a slice of the block's read-only
// build table (chainedtable.RunTable), and GSH's and GSMJ's skew-join runs
// are slices of arrays nothing overwrites.
//
// Every run carries the tag set by the last Tag call, and ReplayNext
// replays one tag's runs at a time, so runs of several tapes can be
// replayed interleaved in tag order.
//
// When no flush consumer is installed on the destination buffers the
// record stream is unobservable — the ring overwrites, Flush is a no-op,
// and only the count and linear checksum survive — so SummaryOnly puts
// the tape in a mode that folds each run into those two scalars and
// retains nothing: staging then takes O(1) memory however much the
// kernels emit. Every push carries its run's payload sum, which the
// emitter computes once per key group or tile, so the fold costs O(1) per
// run, not one add per result: a launch nobody consumes costs host time
// in its input and its runs, not in its output.
type Tape struct {
	ops      []tapeOp
	next     int // replay cursor into ops
	tag      int32
	count    uint64
	checksum uint64
	sumOnly  bool
}

// SummaryOnly switches the tape to summary-only staging: runs accumulate
// the same count and order-independent checksum a Buffer would, but no
// records are retained and Replay transfers just the two scalars. Only
// valid when the destination buffer has no flush consumer; it must be
// called before the first push.
func (t *Tape) SummaryOnly() { t.sumOnly = true }

// Tag sets the tag of the runs pushed from now on; the simulator tags
// each run with the index of the block that emitted it.
func (t *Tape) Tag(tag int) { t.tag = int32(tag) }

// PushRun records a run of results matching one S tuple (see
// Buffer.PushRun). prSum is PayloadSum(rps). rps is retained, not copied.
func (t *Tape) PushRun(k relation.Key, rps []relation.Payload, ps relation.Payload, prSum uint64) {
	if len(rps) == 0 {
		return
	}
	if sanitize.Enabled {
		checkRunSum(rps, prSum)
	}
	n := uint64(len(rps))
	t.count += n
	if t.sumOnly {
		t.checksum += coefPayloadR*prSum + n*(coefKey*uint64(k)+coefPayloadS*uint64(ps))
		return
	}
	t.ops = append(t.ops, tapeOp{key: k, p: ps, tag: t.tag, run: rps})
}

// PushRunS records a run of results matching one R tuple (see
// Buffer.PushRunS). psSum is PayloadSum(sps). sps is retained, not copied.
func (t *Tape) PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload, psSum uint64) {
	if len(sps) == 0 {
		return
	}
	if sanitize.Enabled {
		checkRunSum(sps, psSum)
	}
	n := uint64(len(sps))
	t.count += n
	if t.sumOnly {
		t.checksum += coefPayloadS*psSum + n*(coefKey*uint64(k)+coefPayloadR*uint64(pr))
		return
	}
	t.ops = append(t.ops, tapeOp{runS: true, key: k, p: pr, tag: t.tag, run: sps})
}

// PayloadSum returns the sum of ps mod 2^64: the run sum a Tape push
// takes, and the only part of a run a summary-only tape needs besides its
// length.
func PayloadSum(ps []relation.Payload) uint64 {
	var sum uint64
	for _, p := range ps {
		sum += uint64(p)
	}
	return sum
}

// checkRunSum re-adds a pushed run under the sanitize tag: a wrong sum
// would corrupt the checksum of every summary-only launch silently.
func checkRunSum(run []relation.Payload, sum uint64) {
	if got := PayloadSum(run); got != sum {
		sanitize.Failf("outbuf: run of %d payloads pushed with sum %d, its payloads sum to %d", len(run), sum, got)
	}
}

// Next returns the tag of the first run not yet replayed; ok is false
// when every recorded run has been.
func (t *Tape) Next() (tag int, ok bool) {
	if t.next == len(t.ops) {
		return 0, false
	}
	return int(t.ops[t.next].tag), true
}

// ReplayNext applies to dst, in record order, the consecutive runs from
// the replay cursor on that carry Next's tag, and advances the cursor past
// them. Each reissues its original push, so the ring writes, count,
// checksum and flush callbacks are those of pushing the runs to dst
// directly.
func (t *Tape) ReplayNext(dst *Buffer) {
	if t.next == len(t.ops) {
		return
	}
	tag := t.ops[t.next].tag
	for ; t.next < len(t.ops) && t.ops[t.next].tag == tag; t.next++ {
		op := &t.ops[t.next]
		if op.runS {
			dst.PushRunS(op.key, op.p, op.run)
		} else {
			dst.PushRun(op.key, op.run, op.p)
		}
	}
}

// Replay applies every run not yet replayed to dst, whatever its tag. A
// summary-only tape transfers its count and checksum instead, the only
// observable effects of its runs on a buffer without a flush consumer.
func (t *Tape) Replay(dst *Buffer) {
	if t.sumOnly {
		dst.count += t.count
		dst.checksum += t.checksum
		return
	}
	for t.next < len(t.ops) {
		t.ReplayNext(dst)
	}
}

// Reset clears the tape for reuse, keeping its capacity and mode. It drops
// the retained runs, so a reused tape does not keep their arrays alive.
func (t *Tape) Reset() {
	clear(t.ops)
	t.ops = t.ops[:0]
	t.next = 0
	t.tag = 0
	t.count = 0
	t.checksum = 0
}
