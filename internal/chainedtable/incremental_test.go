package chainedtable

import (
	"testing"

	"skewjoin/internal/relation"
)

// TestIncrementalMatchesTable inserts the same tuples into an Incremental
// and a one-shot chained table and checks every key probes identically.
func TestIncrementalMatchesTable(t *testing.T) {
	tuples := make([]relation.Tuple, 0, 3000)
	for i := 0; i < 3000; i++ {
		// Heavy duplication: key space of 100 so chains are long.
		tuples = append(tuples, relation.Tuple{Key: relation.Key(i % 100), Payload: relation.Payload(i)})
	}

	inc := NewIncremental(0)
	for _, tp := range tuples {
		inc.Insert(tp)
	}
	tab := chained(tuples)

	if inc.Len() != len(tuples) {
		t.Fatalf("Len = %d, want %d", inc.Len(), len(tuples))
	}
	for k := relation.Key(0); k < 110; k++ {
		gotInc, _ := inc.Matches(k, nil)
		gotTab, _ := tab.Matches(k, nil)
		if len(gotInc) != len(gotTab) {
			t.Fatalf("key %d: incremental found %d matches, table found %d", k, len(gotInc), len(gotTab))
		}
		// Same multiset: both tables sum the same payloads for the key.
		var sumInc, sumTab uint64
		for _, p := range gotInc {
			sumInc += uint64(p)
		}
		for _, p := range gotTab {
			sumTab += uint64(p)
		}
		if sumInc != sumTab {
			t.Fatalf("key %d: payload sum mismatch %d vs %d", k, sumInc, sumTab)
		}
	}
}

// TestIncrementalGrowth checks the table doubles past its initial bucket
// count and stays at load factor <= 1.
func TestIncrementalGrowth(t *testing.T) {
	inc := NewIncremental(0)
	if inc.Buckets() != incrementalMinBuckets {
		t.Fatalf("initial buckets = %d, want %d", inc.Buckets(), incrementalMinBuckets)
	}
	for i := 0; i < 10000; i++ {
		inc.Insert(relation.Tuple{Key: relation.Key(i), Payload: relation.Payload(i)})
		if inc.Len() > inc.Buckets() {
			t.Fatalf("after %d inserts: %d tuples in %d buckets (load factor > 1)", i+1, inc.Len(), inc.Buckets())
		}
	}
	if inc.Buckets() < 10000 {
		t.Fatalf("buckets = %d after 10000 inserts, expected >= 10000", inc.Buckets())
	}
	// Every inserted key still probes to exactly one match after growth.
	for i := 0; i < 10000; i++ {
		m, _ := inc.Matches(relation.Key(i), nil)
		if len(m) != 1 || m[0] != relation.Payload(i) {
			t.Fatalf("key %d: matches %v, want [%d]", i, m, i)
		}
	}
}

// TestIncrementalCapHint checks a capacity hint pre-sizes the bucket
// array so no rehash happens during a hinted build.
func TestIncrementalCapHint(t *testing.T) {
	inc := NewIncremental(5000)
	before := inc.Buckets()
	if before < 5000 {
		t.Fatalf("hinted buckets = %d, want >= 5000", before)
	}
	for i := 0; i < 5000; i++ {
		inc.Insert(relation.Tuple{Key: relation.Key(i), Payload: 1})
	}
	if inc.Buckets() != before {
		t.Fatalf("buckets grew from %d to %d despite sufficient hint", before, inc.Buckets())
	}
}

// TestIncrementalMaxChain pins the skew symptom: one hot key's chain
// length equals its multiplicity.
func TestIncrementalMaxChain(t *testing.T) {
	inc := NewIncremental(0)
	for i := 0; i < 500; i++ {
		inc.Insert(relation.Tuple{Key: 7, Payload: relation.Payload(i)})
	}
	for i := 0; i < 100; i++ {
		inc.Insert(relation.Tuple{Key: relation.Key(1000 + i), Payload: 0})
	}
	if mc := inc.MaxChain(); mc < 500 {
		t.Fatalf("MaxChain = %d, want >= 500 (hot key multiplicity)", mc)
	}
}
