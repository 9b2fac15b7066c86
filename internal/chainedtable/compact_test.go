package chainedtable

import (
	"fmt"
	"sort"
	"testing"

	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// match is one (S index, R payload) probe result, the unit the equivalence
// tests compare across tables.
type match struct {
	i  int
	pr relation.Payload
}

func sortMatches(ms []match) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].i != ms[b].i {
			return ms[a].i < ms[b].i
		}
		return ms[a].pr < ms[b].pr
	})
}

// probeMatches probes every tuple of ts through table, reusing one
// scratch across probes, and returns the sorted (S index, R
// payload) matches plus the total entries visited.
func probeMatches(table matcher, ts []relation.Tuple) ([]match, int) {
	var ms []match
	var scratch []relation.Payload
	visited := 0
	for i := range ts {
		m, v := table.Matches(ts[i].Key, scratch)
		scratch = m
		visited += v
		for _, pr := range m {
			ms = append(ms, match{i, pr})
		}
	}
	sortMatches(ms)
	return ms, visited
}

// longestChain walks every chain of a chained table and returns the
// longest.
func longestChain(t *Concurrent) int {
	max := 0
	for b := range t.heads {
		n := 0
		for i := t.heads[b].Load(); i >= 0; i = t.next[i] {
			n++
		}
		if n > max {
			max = n
		}
	}
	return max
}

type variantWorkload struct {
	name string
	r, s []relation.Tuple
}

// variantWorkloads returns the inputs the equivalence tests sweep:
// uniform, moderately skewed (small key range), one-hot and empty sides.
func variantWorkloads() []variantWorkload {
	mk := func(n, keyRange int, seed int64) []relation.Tuple { return randomTuples(n, keyRange, seed) }
	hot := func(n int) []relation.Tuple {
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{Key: 7, Payload: relation.Payload(i)}
		}
		return ts
	}
	return []variantWorkload{
		{"uniform", mk(4000, 1<<20, 10), mk(4000, 1<<20, 11)},
		{"skewed", mk(3000, 40, 12), mk(3000, 40, 13)},
		{"one-hot", hot(500), hot(700)},
		{"empty-s", mk(100, 50, 14), nil},
		{"empty-r", nil, mk(100, 50, 15)},
	}
}

// TestProbeVariantsEquivalent pins the compact table, which the CPU join
// phase and the simulated GPU kernels build, to the paper's chained table:
// over every workload both must produce the identical match multiset, the
// identical visit count, and a largest bucket equal to the longest chain —
// the values the join phase reports as ProbeVisits and MaxChain, and the
// chain steps the GPU kernels charge.
func TestProbeVariantsEquivalent(t *testing.T) {
	for _, w := range variantWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			chain := chained(w.r)
			compact := BuildCompact(w.r)
			want, wantVisits := probeMatches(chain, w.s)
			got, visits := probeMatches(compactMatcher{compact}, w.s)
			if visits != wantVisits {
				t.Errorf("compact visited %d, chained %d", visits, wantVisits)
			}
			if mc, lc := compact.MaxChain(), longestChain(chain); mc != lc {
				t.Errorf("compact MaxChain %d, longest chain %d", mc, lc)
			}
			if len(got) != len(want) {
				t.Fatalf("compact %d matches, chained %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("match %d: compact %+v, chained %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// The arena builds only the compact layout; each arena test runs as a
// "compact" subtest so its results stay keyed by the layout under test.

// TestArenaReuse drives a sequence of builds through one arena and checks
// that every build probes correctly once the scratch is being recycled:
// each table must reflect only its own tuples.
func TestArenaReuse(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		arena := &Arena{}
		// Grow to the high-water mark, then rebuild smaller partitions.
		sizes := []int{1 << 12, 100, 1, 37, 1 << 10, 0, 255}
		for round, n := range sizes {
			tuples := randomTuples(n, 64, int64(30+round))
			table := arena.Build(tuples)
			if table.Len() != n {
				t.Fatalf("round %d: Len = %d, want %d", round, table.Len(), n)
			}
			want := make(map[relation.Key]int)
			for _, tp := range tuples {
				want[tp.Key]++
			}
			total := 0
			for k := relation.Key(0); k < 64; k++ {
				m, _ := (compactMatcher{table}).Matches(k, nil)
				got := len(m)
				if got != want[k] {
					t.Fatalf("round %d key %d: %d matches, want %d", round, k, got, want[k])
				}
				total += got
			}
			if total != n {
				t.Fatalf("round %d: probed %d tuples, want %d", round, total, n)
			}
		}
	})
}

// TestArenaDetach verifies the split-task contract: a detached table keeps
// answering probes correctly even after the arena builds over new input.
func TestArenaDetach(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		arena := &Arena{}
		kept := randomTuples(2000, 50, 40)
		keptTable := arena.Build(kept)
		arena.Detach()
		// Build several more tables; without Detach these would have
		// clobbered keptTable's scratch in place.
		for round := 0; round < 4; round++ {
			arena.Build(randomTuples(3000, 50, int64(41+round)))
		}
		want := make(map[relation.Key]int)
		for _, tp := range kept {
			want[tp.Key]++
		}
		for k := relation.Key(0); k < 50; k++ {
			if m, _ := (compactMatcher{keptTable}).Matches(k, nil); len(m) != want[k] {
				t.Fatalf("key %d after detach: %d matches, want %d", k, len(m), want[k])
			}
		}
	})
}

// TestArenaSteadyStateAllocFree is the arena's reason to exist: after the
// first build grows the scratch, same-size rebuilds must allocate nothing.
// Probing a hot bucket as the join phase does, each tuple's bucket emitted
// through PushMatches into an output ring, allocates nothing either.
func TestArenaSteadyStateAllocFree(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		arena := &Arena{}
		tuples := randomTuples(1<<12, 200, 50)
		for i := 0; i < len(tuples); i += 4 {
			tuples[i].Key = 7 // a hot bucket of over 1024 entries
		}
		arena.Build(tuples) // warm-up: grows scratch
		allocs := testing.AllocsPerRun(20, func() {
			arena.Build(tuples)
		})
		if allocs != 0 {
			t.Errorf("steady-state arena build allocates %.1f per call, want 0", allocs)
		}
		table := arena.Build(tuples)
		buf := outbuf.New(0)
		allocs = testing.AllocsPerRun(20, func() {
			for _, tp := range tuples {
				buf.PushMatches(tp.Key, table.Bucket(tp.Key), tp.Payload)
			}
		})
		if allocs != 0 {
			t.Errorf("probing through Bucket and PushMatches allocates %.1f per pass, want 0", allocs)
		}
	})
}

// TestNilArenaBuilds pins the nil-receiver contract callers without reuse
// rely on.
func TestNilArenaBuilds(t *testing.T) {
	var arena *Arena
	tuples := randomTuples(500, 30, 60)
	if table := arena.Build(tuples); table.Len() != len(tuples) {
		t.Errorf("Len = %d, want %d", table.Len(), len(tuples))
	}
	arena.Detach() // must not panic
}

// BenchmarkBuildTiny measures build cost on 1-8 tuple partitions, the bulk
// of a high-fanout join phase's tasks: a fresh allocation per build against
// the arena's recycled scratch.
func BenchmarkBuildTiny(b *testing.B) {
	for _, size := range []int{1, 2, 4, 8} {
		tuples := make([]relation.Tuple, size)
		for i := range tuples {
			tuples[i] = relation.Tuple{Key: relation.Key(i * 2654435761), Payload: relation.Payload(i)}
		}
		b.Run(fmt.Sprintf("alloc/size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildCompact(tuples)
			}
		})
		b.Run(fmt.Sprintf("arena/size=%d", size), func(b *testing.B) {
			arena := &Arena{}
			arena.Build(tuples)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena.Build(tuples)
			}
		})
	}
}
