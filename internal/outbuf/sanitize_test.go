//go:build sanitize

package outbuf

import (
	"fmt"
	"strings"
	"testing"

	"skewjoin/internal/relation"
)

// TestSanitizeTapeRejectsWrongSum hands a recording and a summary-only
// tape a run whose sum is off by one, through PushRun and PushRunS: the
// sanitizer must re-add the run and abort, since a summary-only tape
// would otherwise fold the wrong checksum without a trace.
func TestSanitizeTapeRejectsWrongSum(t *testing.T) {
	run := []relation.Payload{3, 5, 7}
	for _, sumOnly := range []bool{false, true} {
		for _, s := range []bool{false, true} {
			name := fmt.Sprintf("summary-only=%v/runS=%v", sumOnly, s)
			t.Run(name, func(t *testing.T) {
				var tape Tape
				if sumOnly {
					tape.SummaryOnly()
				}
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
