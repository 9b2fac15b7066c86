package outbuf

import "skewjoin/internal/relation"

// Writer is the result-emission interface shared by the overwriting ring
// Buffer and the staging Tape. GPU kernels write through it so that the
// simulator can swap the block's output destination: in serial execution a
// block writes straight into its SM's shared Buffer; in host-parallel
// execution it writes into a private Tape that is later replayed into the
// shared Buffer in block-index order.
//
// Every result is part of a run sharing one key and one side's payload,
// and a Tape retains the run rather than copying it, so the caller keeps
// it intact until the launch ends: a probe's matches are a slice of the
// block's read-only build table (chainedtable.RunTable), and GSH's and
// GSMJ's skew-join runs are slices of arrays nothing overwrites.
type Writer interface {
	PushRun(k relation.Key, rps []relation.Payload, ps relation.Payload)
	PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload)
	Count() uint64
}

var (
	_ Writer = (*Buffer)(nil)
	_ Writer = (*Tape)(nil)
)

// tapeOp is one recorded run: PushRunS's when runS is set, else PushRun's.
type tapeOp struct {
	runS bool
	key  relation.Key
	p    relation.Payload   // the payload every result of the run shares
	run  []relation.Payload // the retained caller slice
}

// Tape records a sequence of emit operations so they can be replayed into
// a Buffer later, reproducing exactly the ring writes, count, checksum and
// flush batches the same operations would have produced if applied
// directly. One Tape is owned by one simulated thread block during a
// host-parallel kernel launch; the simulator replays the tapes in
// block-index order to make parallel execution bit-identical to serial.
//
// PushRun and PushRunS retain the payload slice instead of copying it, so
// each call costs O(1) and the tape holds one op per run — a probe's run
// per probing tuple — not one payload per result: its memory follows the
// block's inputs, not its output. Callers must not mutate those slices
// before Replay.
//
// When no flush consumer is installed on the destination buffers the
// record stream is unobservable — the ring overwrites, Flush is a no-op,
// and only the count and linear checksum survive — so SummaryOnly puts
// the tape in a mode that folds each operation into those two scalars
// and retains nothing. A skewed launch's output then stages in O(1)
// memory per block.
type Tape struct {
	ops      []tapeOp
	count    uint64
	checksum uint64
	sumOnly  bool
}

// SummaryOnly switches the tape to summary-only staging: operations
// accumulate the same count and order-independent checksum a Buffer
// would, but no records are retained and Replay transfers just the two
// scalars. Only valid when the destination buffer has no flush consumer
// (the simulator checks HasFlush before choosing this mode); it must be
// called before the first push.
func (t *Tape) SummaryOnly() { t.sumOnly = true }

// PushRun records a run of results matching one S tuple (see
// Buffer.PushRun). rps is retained, not copied.
func (t *Tape) PushRun(k relation.Key, rps []relation.Payload, ps relation.Payload) {
	if len(rps) == 0 {
		return
	}
	t.count += uint64(len(rps))
	if t.sumOnly {
		var prSum uint64
		for _, pr := range rps {
			prSum += uint64(pr)
		}
		n := uint64(len(rps))
		t.checksum += coefPayloadR*prSum + n*(coefKey*uint64(k)+coefPayloadS*uint64(ps))
		return
	}
	t.ops = append(t.ops, tapeOp{key: k, p: ps, run: rps})
}

// PushRunS records a run of results matching one R tuple (see
// Buffer.PushRunS). sps is retained, not copied.
func (t *Tape) PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload) {
	if len(sps) == 0 {
		return
	}
	t.count += uint64(len(sps))
	if t.sumOnly {
		var psSum uint64
		for _, ps := range sps {
			psSum += uint64(ps)
		}
		n := uint64(len(sps))
		t.checksum += coefPayloadS*psSum + n*(coefKey*uint64(k)+coefPayloadR*uint64(pr))
		return
	}
	t.ops = append(t.ops, tapeOp{runS: true, key: k, p: pr, run: sps})
}

// Count returns the number of results recorded so far.
func (t *Tape) Count() uint64 { return t.count }

// Replay applies the recorded operations to dst in record order. The
// resulting ring contents, cursor, count, checksum and flush callbacks are
// bit-identical to issuing the original calls against dst directly:
// every op reissues the same run, which performs the same per-result ring
// writes and wrap-time flushes.
func (t *Tape) Replay(dst *Buffer) {
	if t.sumOnly {
		// Summary-only staging: the destination has no flush consumer, so
		// the only observable effects of the original runs are the two
		// linear scalars. Transfer them directly.
		dst.count += t.count
		dst.checksum += t.checksum
		return
	}
	for i := range t.ops {
		op := &t.ops[i]
		if op.runS {
			dst.PushRunS(op.key, op.p, op.run)
		} else {
			dst.PushRun(op.key, op.run, op.p)
		}
	}
}

// Reset clears the tape for reuse, keeping its capacity and mode.
func (t *Tape) Reset() {
	t.ops = t.ops[:0]
	t.count = 0
	t.checksum = 0
}
