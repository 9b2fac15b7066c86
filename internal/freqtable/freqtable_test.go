package freqtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"skewjoin/internal/relation"
)

func TestAddAndCount(t *testing.T) {
	c := New(4)
	for i := 0; i < 5; i++ {
		if got := c.Add(42); got != uint32(i+1) {
			t.Errorf("Add #%d returned %d", i+1, got)
		}
	}
	c.Add(7)
	if got := c.Count(42); got != 5 {
		t.Errorf("Count(42) = %d", got)
	}
	if got := c.Count(7); got != 1 {
		t.Errorf("Count(7) = %d", got)
	}
	if got := c.Count(100); got != 0 {
		t.Errorf("Count(absent) = %d", got)
	}
	if got := c.Distinct(); got != 2 {
		t.Errorf("Distinct = %d", got)
	}
}

func TestGrowthPreservesCounts(t *testing.T) {
	c := New(2) // force many grows
	rng := rand.New(rand.NewSource(1))
	want := make(map[relation.Key]uint32)
	for i := 0; i < 5000; i++ {
		k := relation.Key(rng.Intn(700))
		c.Add(k)
		want[k]++
	}
	if c.Distinct() != len(want) {
		t.Fatalf("Distinct = %d, want %d", c.Distinct(), len(want))
	}
	for k, w := range want {
		if got := c.Count(k); got != w {
			t.Errorf("Count(%d) = %d, want %d", k, got, w)
		}
	}
}

// TestResetRestartsCounts checks that Reset empties the counter without
// giving up its capacity, including a counter that had grown: the keys
// counted before the reset read 0, and counting resumes from 1.
func TestResetRestartsCounts(t *testing.T) {
	c := New(4)
	initial := len(c.keys)
	for k := 0; k < 100; k++ { // grows the table several times
		c.Add(relation.Key(k))
		c.Add(relation.Key(k))
	}
	grown := len(c.keys)
	if grown <= initial {
		t.Fatalf("capacity %d did not grow past %d", grown, initial)
	}
	for round := 0; round < 2; round++ {
		c.Reset()
		if len(c.keys) != grown || len(c.counts) != grown || len(c.occupied) != grown {
			t.Fatalf("round %d: Reset changed capacity to %d/%d/%d, want %d",
				round, len(c.keys), len(c.counts), len(c.occupied), grown)
		}
		if c.Distinct() != 0 || c.Count(7) != 0 {
			t.Fatalf("round %d: after Reset Distinct = %d, Count(7) = %d", round, c.Distinct(), c.Count(7))
		}
		c.Each(func(k relation.Key, cnt uint32) { t.Errorf("round %d: Each visited %d after Reset", round, k) })
		// Count a different key set from the one before the reset.
		want := make(map[relation.Key]uint32)
		for i := 0; i < 300; i++ {
			k := relation.Key(1000*(round+1) + i%70)
			if got, w := c.Add(k), want[k]+1; got != w {
				t.Fatalf("round %d: Add(%d) = %d, want %d", round, k, got, w)
			}
			want[k]++
		}
		if c.Distinct() != len(want) {
			t.Errorf("round %d: Distinct = %d, want %d", round, c.Distinct(), len(want))
		}
		for k, w := range want {
			if got := c.Count(k); got != w {
				t.Errorf("round %d: Count(%d) = %d, want %d", round, k, got, w)
			}
		}
		if c.Count(42) != 0 {
			t.Errorf("round %d: a key counted before the reset reads %d", round, c.Count(42))
		}
	}
}

func TestEachVisitsAll(t *testing.T) {
	c := New(8)
	for k := 0; k < 50; k++ {
		for i := 0; i <= k%3; i++ {
			c.Add(relation.Key(k))
		}
	}
	seen := make(map[relation.Key]uint32)
	c.Each(func(k relation.Key, cnt uint32) { seen[k] = cnt })
	if len(seen) != 50 {
		t.Fatalf("Each visited %d keys", len(seen))
	}
	for k, cnt := range seen {
		if want := uint32(k)%3 + 1; cnt != want {
			t.Errorf("key %d count %d, want %d", k, cnt, want)
		}
	}
}

func TestAtLeastThreshold(t *testing.T) {
	c := New(8)
	add := func(k relation.Key, n int) {
		for i := 0; i < n; i++ {
			c.Add(k)
		}
	}
	add(1, 5)
	add(2, 2)
	add(3, 1)
	add(4, 2)
	got := c.AtLeast(2)
	if len(got) != 3 {
		t.Fatalf("AtLeast(2) returned %d keys", len(got))
	}
	if got[0].Key != 1 || got[0].Count != 5 {
		t.Errorf("most frequent first: got %+v", got[0])
	}
	// Deterministic tie-break: key 2 before key 4.
	if got[1].Key != 2 || got[2].Key != 4 {
		t.Errorf("tie-break wrong: %+v", got[1:])
	}
}

func TestTopK(t *testing.T) {
	c := New(8)
	for k := 1; k <= 10; k++ {
		for i := 0; i < k; i++ {
			c.Add(relation.Key(k))
		}
	}
	top := c.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d", len(top))
	}
	for i, want := range []relation.Key{10, 9, 8} {
		if top[i].Key != want {
			t.Errorf("top[%d] = %d, want %d", i, top[i].Key, want)
		}
	}
	if all := c.TopK(100); len(all) != 10 {
		t.Errorf("TopK(100) returned %d keys", len(all))
	}
}

func TestTopKEmpty(t *testing.T) {
	c := New(4)
	if got := c.TopK(3); len(got) != 0 {
		t.Errorf("TopK on empty counter returned %d entries", len(got))
	}
	if got := c.AtLeast(1); len(got) != 0 {
		t.Errorf("AtLeast on empty counter returned %d entries", len(got))
	}
}

func TestZeroKey(t *testing.T) {
	// Key 0 must be countable (the table tracks occupancy separately).
	c := New(4)
	c.Add(0)
	c.Add(0)
	if got := c.Count(0); got != 2 {
		t.Errorf("Count(0) = %d", got)
	}
}

func TestQuickMatchesMap(t *testing.T) {
	f := func(keys []uint16) bool {
		c := New(1)
		want := make(map[relation.Key]uint32)
		for _, k := range keys {
			key := relation.Key(k % 300)
			c.Add(key)
			want[key]++
		}
		if c.Distinct() != len(want) {
			return false
		}
		for k, w := range want {
			if c.Count(k) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
