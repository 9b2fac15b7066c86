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
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the sanitize cycle detector to panic; it did not fire")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "sanitize:") || !strings.Contains(msg, "cycle") {
			t.Fatalf("panic is not the cycle diagnostic: %q", msg)
		}
	}()
	fn()
}

// corruptTable builds a small table and rewires one chain's head node to
// point at itself — the classic next-link corruption that would hang an
// unsanitized probe forever.
func corruptTable(t *testing.T) (*Table, relation.Key) {
	t.Helper()
	tuples := make([]relation.Tuple, 8)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: relation.Key(i), Payload: relation.Payload(i)}
	}
	tb := Build(tuples)
	for b := range tb.heads {
		if h := tb.heads[b]; h >= 0 {
			tb.next[h] = h
			return tb, tuples[h].Key
		}
	}
	t.Fatal("no non-empty bucket in an 8-tuple table")
	return nil, 0
}

func TestSanitizeProbeDetectsCycle(t *testing.T) {
	tb, key := corruptTable(t)
	mustPanicWithCycle(t, func() {
		tb.Probe(key, func(relation.Payload) {})
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
		c.Probe(key, func(relation.Payload) {})
	})
}

// TestSanitizeCleanTableUnaffected pins down that the checks are
// observability-only: an intact table behaves identically under the
// sanitizer.
func TestSanitizeCleanTableUnaffected(t *testing.T) {
	tuples := []relation.Tuple{{Key: 1, Payload: 10}, {Key: 1, Payload: 11}, {Key: 2, Payload: 20}}
	tb := Build(tuples)
	matches := 0
	visited := tb.Probe(1, func(relation.Payload) { matches++ })
	if matches != 2 || visited < 2 {
		t.Fatalf("probe under sanitize returned matches=%d visited=%d", matches, visited)
	}
	if got := BuildCompact(tuples).MaxChain(); got < 2 {
		t.Fatalf("compact MaxChain under sanitize = %d", got)
	}
}
