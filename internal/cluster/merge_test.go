package cluster

import (
	"fmt"
	"testing"

	"skewjoin/internal/csh"
	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
	"skewjoin/internal/service"
	"skewjoin/internal/volcano"
	"skewjoin/internal/zipf"
)

// shardCall is one fragment-pair join run the way a shard runs it — a
// GroupSum sink — with the exact per-key counts its consumers start from.
type shardCall struct {
	matches, checksum uint64
	groups            map[relation.Key]uint64
}

func runCall(t *testing.T, r, s relation.Relation) shardCall {
	t.Helper()
	one := func(outbuf.Result) uint64 { return 1 }
	root := volcano.NewGroupSum(one)
	factory, collect := volcano.Sink(root, func() volcano.Consumer { return volcano.NewGroupSum(one) })
	res := csh.Join(r, s, csh.Config{Threads: 2, Flush: factory})
	collect()
	return shardCall{matches: res.Summary.Count, checksum: res.Summary.Checksum, groups: root.Groups}
}

// groupsPartial is the call's partial under the "groups" consumer.
func (c shardCall) groupsPartial() Partial {
	rows := c.matches
	return Partial{Matches: c.matches, Checksum: c.checksum, Rows: &rows, Counts: sortedGroups(c.groups)}
}

// topkPartial is the call's partial under the "topk" consumer.
func (c shardCall) topkPartial(k int) Partial {
	return Partial{Matches: c.matches, Checksum: c.checksum, Counts: wire(volcano.SelectTop(c.groups, k))}
}

func wire(top []volcano.KeyWeight) []service.KeyWeight {
	out := make([]service.KeyWeight, 0, len(top))
	for _, kw := range top {
		out = append(out, service.KeyWeight{Key: uint32(kw.Key), Weight: kw.Weight})
	}
	return out
}

func sameTop(t *testing.T, what string, got, want []volcano.KeyWeight) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys %+v, want %d %+v", what, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func exclude(rel relation.Relation, hot map[relation.Key]struct{}) relation.Relation {
	var out relation.Relation
	for _, tp := range rel.Tuples {
		if _, cut := hot[tp.Key]; !cut {
			out.Tuples = append(out.Tuples, tp)
		}
	}
	return out
}

func only(rel relation.Relation, hot map[relation.Key]struct{}) relation.Relation {
	var out relation.Relation
	for _, tp := range rel.Tuples {
		if _, keep := hot[tp.Key]; keep {
			out.Tuples = append(out.Tuples, tp)
		}
	}
	return out
}

// TestMergeEqualsSingleNodeForAnyPartitioning is the property behind the
// router's correctness: partition a join the cluster's way — hash
// fragments with the hot keys carved out, a replicated build fragment
// joined against round-robin probe splits — under varying shard counts and
// hot-set sizes, and the merged partials must reproduce the single-node
// summary, row count and exact groups. The topk candidates — each cold
// call's local top-k plus each hot call's groups — must select exactly the
// top-k of the exact groups, for k from 1 to beyond the key count.
func TestMergeEqualsSingleNodeForAnyPartitioning(t *testing.T) {
	const n = 20000
	g, err := zipf.New(zipf.Config{Theta: 1.0, Universe: n, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	r, s := g.Pair(n)

	want := oracle.Expected(r, s)
	wantCounts := exactCounts(r, s)
	wantGroups := sortedGroups(wantCounts)

	stats := relation.ComputeStats(r)
	for _, tc := range []struct {
		name   string
		shards int
		nHot   int
	}{
		{"2shards-nohot", 2, 0},
		{"3shards-1hot", 3, 1},
		{"3shards-4hot", 3, 4},
		{"5shards-16hot", 5, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hot := make(map[relation.Key]struct{}, tc.nHot)
			for _, kf := range stats.TopKeys[:tc.nHot] {
				hot[kf.Key] = struct{}{}
			}
			ring := NewRing(tc.shards, 32)
			rParts := ring.Partition(r)
			sParts := ring.Partition(s)
			hotR := only(r, hot)
			hotS := only(s, hot)

			// Cold calls: each shard joins its hash fragments minus the
			// hot keys.
			var cold, hotCalls []shardCall
			for i := 0; i < tc.shards; i++ {
				cold = append(cold, runCall(t, exclude(rParts[i], hot), exclude(sParts[i], hot)))
			}
			// Hot calls: the replicated build side against each shard's
			// round-robin probe split.
			if len(hot) > 0 {
				for i := 0; i < tc.shards; i++ {
					var split relation.Relation
					for j := i; j < hotS.Len(); j += tc.shards {
						split.Tuples = append(split.Tuples, hotS.Tuples[j])
					}
					if split.Len() == 0 {
						continue
					}
					c := runCall(t, hotR, split)
					if len(c.groups) > len(hot) {
						t.Fatalf("hot call returned %d groups for %d hot keys", len(c.groups), len(hot))
					}
					hotCalls = append(hotCalls, c)
				}
			}

			var parts []Partial
			for _, c := range append(cold, hotCalls...) {
				parts = append(parts, c.groupsPartial())
			}
			merged := Merge(parts)
			if merged.Matches != want.Count || merged.Checksum != want.Checksum {
				t.Fatalf("merged summary (%d, %#x) != single-node (%d, %#x)",
					merged.Matches, merged.Checksum, want.Count, want.Checksum)
			}
			if merged.Rows == nil || *merged.Rows != want.Count {
				t.Fatalf("merged rows %v != %d", merged.Rows, want.Count)
			}
			groups := sortedGroups(merged.Counts)
			if len(groups) != len(wantGroups) {
				t.Fatalf("merged %d groups, single-node has %d", len(groups), len(wantGroups))
			}
			for i := range wantGroups {
				if groups[i] != wantGroups[i] {
					t.Fatalf("group[%d] = %+v, want %+v", i, groups[i], wantGroups[i])
				}
			}

			for _, k := range []int{1, 5, 64, len(wantCounts) + 1} {
				var cand []Partial
				for _, c := range cold {
					cand = append(cand, c.topkPartial(k))
				}
				for _, c := range hotCalls {
					cand = append(cand, c.groupsPartial())
				}
				m := Merge(cand)
				if m.Matches != want.Count || m.Checksum != want.Checksum {
					t.Fatalf("k=%d: candidate summary (%d, %#x) != single-node (%d, %#x)",
						k, m.Matches, m.Checksum, want.Count, want.Checksum)
				}
				sameTop(t, fmt.Sprintf("k=%d: candidate topk", k), volcano.SelectTop(m.Counts, k), volcano.SelectTop(wantCounts, k))
			}
		})
	}
}

// TestCandidateMergeBreaksTiesTowardsSmallerKey builds a tie at the k-th
// weight on each level: shard A holds two keys of equal weight of which
// its local top-k keeps only the smaller, and the global k-th place is a
// tie between that key and a smaller one on shard B, which must win.
func TestCandidateMergeBreaksTiesTowardsSmallerKey(t *testing.T) {
	ring := NewRing(2, 32)
	var owned [2][]relation.Key // ascending keys per shard
	for k := relation.Key(1); len(owned[0]) < 8 || len(owned[1]) < 8; k++ {
		o := ring.Owner(uint32(k))
		owned[o] = append(owned[o], k)
	}
	// b is the smallest key overall; a < a2 both sit on the other shard.
	sb := 0
	if owned[1][0] < owned[0][0] {
		sb = 1
	}
	onB, onA := owned[sb], owned[1-sb]
	b, d := onB[0], onB[1]
	a, a2, h := onA[0], onA[1], onA[2]
	// Output weight per key is freqR·freqS: h 9, a 4, a2 4, b 4, d 1.
	freq := map[relation.Key]int{h: 3, a: 2, a2: 2, b: 2, d: 1}
	var r, s relation.Relation
	for key, f := range freq {
		for i := 0; i < f; i++ {
			r.Tuples = append(r.Tuples, relation.Tuple{Key: key, Payload: relation.Payload(i)})
			s.Tuples = append(s.Tuples, relation.Tuple{Key: key, Payload: relation.Payload(10 + i)})
		}
	}
	rParts, sParts := ring.Partition(r), ring.Partition(s)
	callA := runCall(t, rParts[1-sb], sParts[1-sb])
	callB := runCall(t, rParts[sb], sParts[sb])

	kw := func(k relation.Key, w uint64) volcano.KeyWeight { return volcano.KeyWeight{Key: k, Weight: w} }
	sameTop(t, "shard A local top-2", volcano.SelectTop(callA.groups, 2), []volcano.KeyWeight{kw(h, 9), kw(a, 4)})
	exact := exactCounts(r, s)
	for k, want := range map[int][]volcano.KeyWeight{
		2: {kw(h, 9), kw(b, 4)},
		3: {kw(h, 9), kw(b, 4), kw(a, 4)},
	} {
		m := Merge([]Partial{callA.topkPartial(k), callB.topkPartial(k)})
		got := volcano.SelectTop(m.Counts, k)
		sameTop(t, fmt.Sprintf("k=%d: candidate topk", k), got, want)
		sameTop(t, fmt.Sprintf("k=%d: exact topk", k), volcano.SelectTop(exact, k), want)
	}
}

// exactCounts computes per-key output counts in closed form.
func exactCounts(r, s relation.Relation) map[relation.Key]uint64 {
	fr := relation.KeyFrequencies(r)
	fs := relation.KeyFrequencies(s)
	m := make(map[relation.Key]uint64)
	for k, a := range fr {
		if b, ok := fs[k]; ok {
			m[k] = uint64(a) * uint64(b)
		}
	}
	return m
}

func TestMergeEmptyAndRowless(t *testing.T) {
	out := Merge(nil)
	if out.Matches != 0 || out.Rows != nil || out.Counts != nil {
		t.Errorf("Merge(nil) = %+v, want zero value", out)
	}
	out = Merge([]Partial{{Matches: 3, Checksum: 5}, {Matches: 4, Checksum: 7}})
	if out.Matches != 7 || out.Checksum != 12 || out.Rows != nil {
		t.Errorf("summary-only merge = %+v", out)
	}
}
