//go:build sanitize

package outbuf

import (
	"fmt"
	"strings"
	"testing"

	"skewjoin/internal/relation"
)

// TestSanitizeTapeRejectsWrongSum hands a tape a run whose sum is off by
// one, through PushRun and PushRunS, with a consumer on its buffer and in
// summary-only mode, without one: the sanitizer must re-add the run and
// abort, since a summary-only tape would otherwise fold the wrong
// checksum without a trace.
func TestSanitizeTapeRejectsWrongSum(t *testing.T) {
	run := []relation.Payload{3, 5, 7}
	for _, sumOnly := range []bool{false, true} {
		for _, s := range []bool{false, true} {
			name := fmt.Sprintf("summary-only=%v/runS=%v", sumOnly, s)
			t.Run(name, func(t *testing.T) {
				b := New(8)
				if !sumOnly {
					b.SetFlush(func([]Result) {})
				}
				tape := NewTape(b)
				tape.PushRun(1, run, 2, 15) // the right sum passes
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "sanitize:") || !strings.Contains(msg, "sum") {
						t.Fatalf("wrong sum not caught: recovered %q", msg)
					}
				}()
				if s {
					tape.PushRunS(1, 2, run, 16)
				} else {
					tape.PushRun(1, run, 2, 16)
				}
			})
		}
	}
}

// TestSanitizeEmitChecksRing hands every emit a hand-built ring of 6
// slots (not a power of two) and a ring with a negative cursor: the
// masked loops and the wrap-free segments alike would skip or misplace
// slots, so the sanitizer must abort before anything is written. Runs
// go out below and above segmentMin, so both emit paths are covered.
func TestSanitizeEmitChecksRing(t *testing.T) {
	bucket := []relation.Tuple{{Key: 1, Payload: 3}, {Key: 2, Payload: 4}, {Key: 1, Payload: 5}}
	short, long := make([]relation.Payload, 3), make([]relation.Payload, 2*segmentMin)
	emits := map[string]func(b *Buffer){
		"PushMatches":    func(b *Buffer) { b.PushMatches(1, bucket, 2) },
		"PushRun/short":  func(b *Buffer) { b.PushRun(1, short, 2) },
		"PushRun/long":   func(b *Buffer) { b.PushRun(1, long, 2) },
		"PushRunS/short": func(b *Buffer) { b.PushRunS(1, 2, short) },
		"PushRunS/long":  func(b *Buffer) { b.PushRunS(1, 2, long) },
	}
	for emit, push := range emits {
		for name, b := range map[string]*Buffer{
			"six-slots":       {ring: make([]Result, 6), mask: 5},
			"negative-cursor": {ring: make([]Result, 8), mask: 7, pos: -1},
		} {
			t.Run(emit+"/"+name, func(t *testing.T) {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "sanitize:") || !strings.Contains(msg, "ring") {
						t.Fatalf("bad ring not caught: recovered %q", msg)
					}
				}()
				push(b)
			})
		}
	}
}
