package volcano

import (
	"fmt"
	"testing"

	"skewjoin/internal/cbase"
	"skewjoin/internal/csh"
	"skewjoin/internal/gbase"
	"skewjoin/internal/gsh"
	"skewjoin/internal/npj"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
	"skewjoin/internal/smj"
	"skewjoin/internal/zipf"
)

func workload(t *testing.T, n int, theta float64) (relation.Relation, relation.Relation) {
	t.Helper()
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r, s := g.Pair(n)
	return r, s
}

// expectedPayloadSum computes SUM(payloadR + payloadS) over the join output
// in closed form from per-key aggregates.
func expectedPayloadSum(r, s relation.Relation) (sum, rows uint64) {
	type agg struct {
		cnt  uint64
		psum uint64
	}
	ra := map[relation.Key]agg{}
	for _, t := range r.Tuples {
		a := ra[t.Key]
		a.cnt++
		a.psum += uint64(t.Payload)
		ra[t.Key] = a
	}
	sa := map[relation.Key]agg{}
	for _, t := range s.Tuples {
		a := sa[t.Key]
		a.cnt++
		a.psum += uint64(t.Payload)
		sa[t.Key] = a
	}
	for k, rv := range ra {
		sv, ok := sa[k]
		if !ok {
			continue
		}
		rows += rv.cnt * sv.cnt
		sum += rv.psum*sv.cnt + sv.psum*rv.cnt
	}
	return sum, rows
}

func sumExpr(res outbuf.Result) uint64 {
	return uint64(res.PayloadR) + uint64(res.PayloadS)
}

func TestScanFilterMap(t *testing.T) {
	r := relation.FromPairs(
		[]relation.Key{1, 2, 3, 4, 5, 6},
		[]relation.Payload{10, 20, 30, 40, 50, 60},
	)
	out := NewScan(r).
		Filter(func(t relation.Tuple) bool { return t.Key%2 == 0 }).
		Map(func(t relation.Tuple) relation.Tuple {
			t.Payload *= 2
			return t
		}).
		Materialize()
	if out.Len() != 3 {
		t.Fatalf("filtered to %d tuples, want 3", out.Len())
	}
	for _, tp := range out.Tuples {
		if tp.Key%2 != 0 {
			t.Errorf("key %d passed the filter", tp.Key)
		}
		if uint32(tp.Payload) != uint32(tp.Key)*20 {
			t.Errorf("payload %d for key %d: map not applied", tp.Payload, tp.Key)
		}
	}
}

func TestScanNoOps(t *testing.T) {
	r := relation.FromPairs([]relation.Key{7}, []relation.Payload{8})
	out := NewScan(r).Materialize()
	if out.Len() != 1 || out.Tuples[0] != r.Tuples[0] {
		t.Errorf("identity scan changed data: %+v", out.Tuples)
	}
}

func TestSumAggregateThroughCSH(t *testing.T) {
	r, s := workload(t, 30000, 0.95)
	wantSum, wantRows := expectedPayloadSum(r, s)

	root := NewSum(sumExpr)
	factory, collect := Sink(root, func() Consumer { return NewSum(sumExpr) })
	res := csh.Join(r, s, csh.Config{Threads: 3, Flush: factory, OutBufCap: 512})
	collect()

	if root.Rows != wantRows || root.Rows != res.Summary.Count {
		t.Errorf("rows = %d, want %d (join reported %d)", root.Rows, wantRows, res.Summary.Count)
	}
	if root.Sum != wantSum {
		t.Errorf("sum = %d, want %d", root.Sum, wantSum)
	}
}

func TestSumAggregateThroughCbase(t *testing.T) {
	r, s := workload(t, 20000, 0.5)
	wantSum, wantRows := expectedPayloadSum(r, s)
	root := NewSum(sumExpr)
	factory, collect := Sink(root, func() Consumer { return NewSum(sumExpr) })
	cbase.Join(r, s, cbase.Config{Threads: 2, Flush: factory})
	collect()
	if root.Rows != wantRows || root.Sum != wantSum {
		t.Errorf("got (%d, %d), want (%d, %d)", root.Rows, root.Sum, wantRows, wantSum)
	}
}

func TestSumAggregateThroughGSH(t *testing.T) {
	r, s := workload(t, 25000, 1.0)
	wantSum, wantRows := expectedPayloadSum(r, s)
	root := NewSum(sumExpr)
	factory, collect := Sink(root, func() Consumer { return NewSum(sumExpr) })
	gsh.Join(r, s, gsh.Config{Flush: factory})
	collect()
	if root.Rows != wantRows || root.Sum != wantSum {
		t.Errorf("got (%d, %d), want (%d, %d)", root.Rows, root.Sum, wantRows, wantSum)
	}
}

func TestSumAggregateThroughNPJ(t *testing.T) {
	r, s := workload(t, 12000, 0.7)
	wantSum, wantRows := expectedPayloadSum(r, s)
	root := NewSum(sumExpr)
	factory, collect := Sink(root, func() Consumer { return NewSum(sumExpr) })
	npj.Join(r, s, npj.Config{Threads: 4, Flush: factory})
	collect()
	if root.Rows != wantRows || root.Sum != wantSum {
		t.Errorf("got (%d, %d), want (%d, %d)", root.Rows, root.Sum, wantRows, wantSum)
	}
}

func TestSumAggregateThroughSMJ(t *testing.T) {
	r, s := workload(t, 12000, 1.0)
	wantSum, wantRows := expectedPayloadSum(r, s)
	root := NewSum(sumExpr)
	factory, collect := Sink(root, func() Consumer { return NewSum(sumExpr) })
	smj.Join(r, s, smj.Config{Threads: 3, Flush: factory})
	collect()
	if root.Rows != wantRows || root.Sum != wantSum {
		t.Errorf("got (%d, %d), want (%d, %d)", root.Rows, root.Sum, wantRows, wantSum)
	}
}

func TestSumAggregateThroughGbase(t *testing.T) {
	r, s := workload(t, 12000, 0.9)
	wantSum, wantRows := expectedPayloadSum(r, s)
	root := NewSum(sumExpr)
	factory, collect := Sink(root, func() Consumer { return NewSum(sumExpr) })
	gbase.Join(r, s, gbase.Config{Flush: factory})
	collect()
	if root.Rows != wantRows || root.Sum != wantSum {
		t.Errorf("got (%d, %d), want (%d, %d)", root.Rows, root.Sum, wantRows, wantSum)
	}
}

func TestCountMatchesMatches(t *testing.T) {
	// The streaming row counter must agree with the join's own match count
	// across both skew paths of CSH.
	r, s := workload(t, 1<<13, 0.9)
	root := NewCount()
	factory, collect := Sink(root, func() Consumer { return NewCount() })
	res := csh.Join(r, s, csh.Config{Threads: 4, Flush: factory})
	collect()
	if root.Rows != res.Summary.Count {
		t.Errorf("Count.Rows = %d, join matches = %d", root.Rows, res.Summary.Count)
	}
}

func TestGroupSumMatchesClosedForm(t *testing.T) {
	r, s := workload(t, 15000, 0.9)
	root := NewGroupSum(func(res outbuf.Result) uint64 { return 1 }) // COUNT per key
	factory, collect := Sink(root, func() Consumer {
		return NewGroupSum(func(res outbuf.Result) uint64 { return 1 })
	})
	res := csh.Join(r, s, csh.Config{Threads: 3, Flush: factory})
	collect()

	// Per-key output counts must equal cntR(k)*cntS(k).
	fr := relation.KeyFrequencies(r)
	fs := relation.KeyFrequencies(s)
	var total uint64
	for k, want := range fr {
		exp := uint64(want) * uint64(fs[k])
		if exp == 0 {
			continue
		}
		if got := root.Groups[k]; got != exp {
			t.Fatalf("key %d: group count %d, want %d", k, got, exp)
		}
		total += exp
	}
	if total != res.Summary.Count {
		t.Errorf("group totals %d != output count %d", total, res.Summary.Count)
	}
}

// TestGroupSumCoalescesRuns checks the run-coalesced GroupSum.Consume
// against a per-result reference on batches shaped around run boundaries,
// and that Expr still sees every result.
func TestGroupSumCoalescesRuns(t *testing.T) {
	next := relation.Payload(0)
	results := func(keys ...relation.Key) []outbuf.Result {
		batch := make([]outbuf.Result, 0, len(keys))
		for _, k := range keys {
			next++
			batch = append(batch, outbuf.Result{Key: k, PayloadR: next, PayloadS: 7 * next})
		}
		return batch
	}
	one := func(outbuf.Result) uint64 { return 1 }
	for _, tc := range []struct {
		name    string
		expr    func(outbuf.Result) uint64
		batches [][]outbuf.Result
	}{
		{"alternating keys", one, [][]outbuf.Result{results(1, 2, 1, 2, 1, 2, 3)}},
		// As when the ring wraps mid-run: the run's first part is flushed,
		// its rest opens the next batch.
		{"run split across batches", one, [][]outbuf.Result{results(4, 7, 7, 7), results(7, 7, 9)}},
		{"empty batch", one, [][]outbuf.Result{results(), results(5, 5), results(), results(5)}},
		{"payload sum", sumExpr, [][]outbuf.Result{results(3, 3, 3, 8, 8, 3), results(3, 1, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			g := NewGroupSum(func(r outbuf.Result) uint64 {
				calls++
				return tc.expr(r)
			})
			want := map[relation.Key]uint64{}
			n := 0
			for _, b := range tc.batches {
				g.Consume(b)
				for _, r := range b {
					want[r.Key] += tc.expr(r)
				}
				n += len(b)
			}
			if calls != n {
				t.Errorf("Expr ran %d times over %d results", calls, n)
			}
			if len(g.Groups) != len(want) {
				t.Fatalf("groups = %v, want %v", g.Groups, want)
			}
			for k, w := range want {
				if got, ok := g.Groups[k]; !ok || got != w {
					t.Errorf("key %d: group %d (present %v), want %d", k, got, ok, w)
				}
			}
		})
	}
}

// BenchmarkGroupSumConsume times one ring-sized batch at run length 1,
// where no two neighbours share a key and there is nothing to coalesce
// (the worst case), and at run length 256, as a hot key's cross product
// leaves the join.
func BenchmarkGroupSumConsume(b *testing.B) {
	for _, run := range []int{1, 256} {
		b.Run(fmt.Sprintf("run=%d", run), func(b *testing.B) {
			batch := make([]outbuf.Result, outbuf.DefaultCapacity)
			for i := range batch {
				batch[i].Key = relation.Key(i / run % 1024)
			}
			g := NewGroupSum(func(outbuf.Result) uint64 { return 1 })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Consume(batch)
			}
		})
	}
}

func TestSinkReusesPerWorkerConsumers(t *testing.T) {
	root := NewSum(sumExpr)
	factory, collect := Sink(root, func() Consumer { return NewSum(sumExpr) })
	a := factory(0)
	b := factory(0)
	a([]outbuf.Result{{PayloadR: 1}})
	b([]outbuf.Result{{PayloadR: 2}})
	factory(2)([]outbuf.Result{{PayloadS: 4}})
	collect()
	if root.Sum != 7 || root.Rows != 3 {
		t.Errorf("sum=%d rows=%d, want 7, 3", root.Sum, root.Rows)
	}
}

func TestSelectTopExactAndDeterministic(t *testing.T) {
	counts := map[relation.Key]uint64{
		10: 5, 20: 9, 30: 9, 40: 1, 50: 7, 60: 9,
	}
	got := SelectTop(counts, 4)
	want := []KeyWeight{{20, 9}, {30, 9}, {60, 9}, {50, 7}}
	if len(got) != len(want) {
		t.Fatalf("SelectTop = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SelectTop[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if few := SelectTop(counts, 100); len(few) != len(counts) {
		t.Errorf("SelectTop(k>len) returned %d entries, want %d", len(few), len(counts))
	}
	if none := SelectTop(nil, 3); len(none) != 0 {
		t.Errorf("SelectTop(nil) = %+v", none)
	}
}
