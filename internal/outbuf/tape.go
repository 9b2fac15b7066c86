package outbuf

import (
	"skewjoin/internal/relation"
	"skewjoin/internal/sanitize"
)

// Tape is the emit handle of a producer that knows each run's payload
// sum: a simulated GPU thread block writes its SM's Buffer through one.
// Each push reaches the Buffer at once. With a flush consumer installed
// it is the Buffer's own PushRun or PushRunS, so the ring writes, count,
// checksum and flush batches are those of pushing to the Buffer directly.
//
// Without a consumer the record stream is unobservable — the ring
// overwrites, Flush is a no-op, and only the count and linear checksum
// survive — so the tape folds the run into those two scalars from its
// length and payload sum, with no ring write. The emitter computes the
// sum once per key group or tile, so the fold costs O(1) per run, not one
// add per result: a launch nobody consumes costs host time in its input
// and its runs, not in its output. Only a Buffer whose ring nobody reads
// through Last may sit behind a tape; the simulator's are private to it.
//
// A push retains nothing: the run slice is free for reuse once the call
// returns.
type Tape struct{ dst *Buffer }

// NewTape returns a tape writing to dst.
func NewTape(dst *Buffer) *Tape { return &Tape{dst: dst} }

// PushRun emits a run of results matching one S tuple (see
// Buffer.PushRun). prSum is PayloadSum(rps).
func (t *Tape) PushRun(k relation.Key, rps []relation.Payload, ps relation.Payload, prSum uint64) {
	if len(rps) == 0 {
		return
	}
	if sanitize.Enabled {
		checkRunSum(rps, prSum)
	}
	b := t.dst
	if b.onFlush != nil {
		b.PushRun(k, rps, ps)
		return
	}
	n := uint64(len(rps))
	b.count += n
	b.checksum += coefPayloadR*prSum + n*(coefKey*uint64(k)+coefPayloadS*uint64(ps))
}

// PushRunS emits a run of results matching one R tuple (see
// Buffer.PushRunS). psSum is PayloadSum(sps).
func (t *Tape) PushRunS(k relation.Key, pr relation.Payload, sps []relation.Payload, psSum uint64) {
	if len(sps) == 0 {
		return
	}
	if sanitize.Enabled {
		checkRunSum(sps, psSum)
	}
	b := t.dst
	if b.onFlush != nil {
		b.PushRunS(k, pr, sps)
		return
	}
	n := uint64(len(sps))
	b.count += n
	b.checksum += coefPayloadS*psSum + n*(coefKey*uint64(k)+coefPayloadR*uint64(pr))
}

// PayloadSum returns the sum of ps mod 2^64: the run sum a Tape push
// takes, and the only part of a run the fold needs besides its length.
func PayloadSum(ps []relation.Payload) uint64 {
	var sum uint64
	for _, p := range ps {
		sum += uint64(p)
	}
	return sum
}

// checkRunSum re-adds a pushed run under the sanitize tag: a wrong sum
// would corrupt the checksum of every consumer-less launch silently.
func checkRunSum(run []relation.Payload, sum uint64) {
	if got := PayloadSum(run); got != sum {
		sanitize.Failf("outbuf: run of %d payloads pushed with sum %d, its payloads sum to %d", len(run), sum, got)
	}
}
