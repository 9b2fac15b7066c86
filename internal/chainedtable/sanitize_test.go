//go:build sanitize

package chainedtable

import (
	"fmt"
	"strings"
	"testing"

	"skewjoin/internal/relation"
)

// mustPanicWithCycle runs fn and asserts the sanitizer aborted it with a
// chain-cycle diagnostic.
func mustPanicWithCycle(t *testing.T, fn func()) {
	t.Helper()
	mustPanicWith(t, "cycle", fn)
}

// mustPanicWith runs fn and asserts the sanitizer aborted it with a
// diagnostic containing want.
func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a sanitize %q diagnostic; the check did not fire", want)
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "sanitize:") || !strings.Contains(msg, want) {
			t.Fatalf("panic is not the %q diagnostic: %q", want, msg)
		}
	}()
	fn()
}

// TestSanitizeRunTableChecksGroups breaks a run table's groups in the two
// ways a faulty build could — a group reaching past its bucket, and one
// key split over two groups — and asserts the tiling check catches each.
func TestSanitizeRunTableChecksGroups(t *testing.T) {
	tuples := interleaved([]relation.Key{3}, 4) // one bucket of four
	past := BuildRuns(tuples)
	past.ends[0] = int32(len(tuples) + 1)
	mustPanicWith(t, "outside bucket", past.checkGroups)
	split := BuildRuns(tuples)
	split.ends[0] = 1
	mustPanicWith(t, "two groups", split.checkGroups)
}

// TestSanitizeProbeDetectsCycle drives the chain walk both chained tables
// share with the classic next-link corruption — a node pointing at itself
// — that would hang an unsanitized probe forever.
func TestSanitizeProbeDetectsCycle(t *testing.T) {
	tuples := []relation.Tuple{{Key: 1, Payload: 10}, {Key: 2, Payload: 20}}
	next := []int32{1, 1} // 0 -> 1 -> 1 -> ...
	mustPanicWithCycle(t, func() {
		matchChain(0, next, tuples, 2, nil)
	})
}

func TestSanitizeConcurrentProbeDetectsCycle(t *testing.T) {
	tuples := make([]relation.Tuple, 8)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: relation.Key(i), Payload: relation.Payload(i)}
	}
	c := NewConcurrent(tuples)
	for i := range tuples {
		c.Insert(i)
	}
	var key relation.Key
	found := false
	for b := range c.heads {
		if h := c.heads[b].Load(); h >= 0 {
			c.next[h] = h
			key = tuples[h].Key
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no non-empty bucket after inserting 8 tuples")
	}
	mustPanicWithCycle(t, func() {
		c.Matches(key, nil)
	})
}

func TestSanitizeIncrementalProbeDetectsCycle(t *testing.T) {
	inc := NewIncremental(0)
	for i := 0; i < 8; i++ {
		inc.Insert(relation.Tuple{Key: relation.Key(i), Payload: relation.Payload(i)})
	}
	for b := range inc.heads {
		if h := inc.heads[b]; h >= 0 {
			inc.next[h] = h
			mustPanicWithCycle(t, func() {
				inc.Matches(inc.tuples[h].Key, nil)
			})
			return
		}
	}
	t.Fatal("no non-empty bucket after inserting 8 tuples")
}

// TestSanitizeCleanTableUnaffected pins down that the checks are
// observability-only: an intact table behaves identically under the
// sanitizer.
func TestSanitizeCleanTableUnaffected(t *testing.T) {
	tuples := []relation.Tuple{{Key: 1, Payload: 10}, {Key: 1, Payload: 11}, {Key: 2, Payload: 20}}
	tb := chained(tuples)
	m, visited := tb.Matches(1, nil)
	if len(m) != 2 || visited < 2 {
		t.Fatalf("probe under sanitize returned matches=%d visited=%d", len(m), visited)
	}
	if got := BuildCompact(tuples).MaxChain(); got < 2 {
		t.Fatalf("compact MaxChain under sanitize = %d", got)
	}
	if run, visited := BuildRuns(tuples).Run(1); len(run) != 2 || visited < 2 {
		t.Fatalf("run table under sanitize returned run=%v visited=%d", run, visited)
	}
}
