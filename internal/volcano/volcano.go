// Package volcano provides a small push-based query-operator layer on top
// of the join algorithms, making the paper's output-consumption model
// concrete: "in the volcano-style query processing, the join output is
// often consumed by an upper level query operator" (§III).
//
// Pre-join operators (Scan, Filter, Map) are tuple-level and produce the
// relations a join consumes. Post-join operators are batch consumers: the
// join algorithms hand them every full output ring (outbuf.FlushFunc), so
// consumption is amortised over ring-sized batches exactly as the paper's
// overwrite-when-full buffers imply. Each worker gets its own consumer
// instance; Merge combines them after the join.
package volcano

import (
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
)

// Scan is the leaf operator: a relation source with optional row-level
// transformations applied lazily when the pipeline is materialised.
type Scan struct {
	src     relation.Relation
	filters []func(relation.Tuple) bool
	maps    []func(relation.Tuple) relation.Tuple
}

// NewScan returns a scan over r. r is not copied until Materialize.
func NewScan(r relation.Relation) *Scan {
	return &Scan{src: r}
}

// Filter appends a predicate; tuples failing it are dropped.
func (s *Scan) Filter(pred func(relation.Tuple) bool) *Scan {
	s.filters = append(s.filters, pred)
	return s
}

// Map appends a per-tuple transformation (e.g. key extraction or payload
// projection), applied after the filters registered so far.
func (s *Scan) Map(fn func(relation.Tuple) relation.Tuple) *Scan {
	s.maps = append(s.maps, fn)
	return s
}

// Materialize evaluates the pipeline into a relation ready for a join.
func (s *Scan) Materialize() relation.Relation {
	out := relation.Relation{Tuples: make([]relation.Tuple, 0, s.src.Len())}
next:
	for _, t := range s.src.Tuples {
		for _, f := range s.filters {
			if !f(t) {
				continue next
			}
		}
		for _, m := range s.maps {
			t = m(t)
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out
}

// Consumer is an upper operator fed with join-output batches. One instance
// per worker; Merge folds another worker's instance into this one.
type Consumer interface {
	Consume(batch []outbuf.Result)
	Merge(other Consumer)
}

// Sink adapts a Consumer to the per-worker outbuf.FlushFunc factory the
// join algorithms take, allocating one consumer per worker via fresh. The
// returned collect function merges all per-worker consumers into the
// provided root consumer; call it after the join returns.
func Sink(root Consumer, fresh func() Consumer) (factory func(worker int) outbuf.FlushFunc, collect func()) {
	var workers []Consumer
	factory = func(worker int) outbuf.FlushFunc {
		for len(workers) <= worker {
			workers = append(workers, fresh())
		}
		c := workers[worker]
		return c.Consume
	}
	collect = func() {
		for _, c := range workers {
			root.Merge(c)
		}
	}
	return factory, collect
}

// Count is the cheapest upper operator: it counts result rows as they
// stream past, touching no tuple fields. The join service uses it for
// streamed match counting — the batch length is known without inspecting
// the ring-backed batch, so consumption cost is O(1) per flush.
type Count struct {
	Rows uint64
}

// NewCount returns a streaming row counter.
func NewCount() *Count { return &Count{} }

// Consume implements Consumer.
func (c *Count) Consume(batch []outbuf.Result) { c.Rows += uint64(len(batch)) }

// Merge implements Consumer.
func (c *Count) Merge(other Consumer) { c.Rows += other.(*Count).Rows }

// SumAggregate computes SUM over an expression of each result tuple.
type SumAggregate struct {
	Expr func(outbuf.Result) uint64
	Sum  uint64
	Rows uint64
}

// NewSum returns a SUM aggregate over expr.
func NewSum(expr func(outbuf.Result) uint64) *SumAggregate {
	return &SumAggregate{Expr: expr}
}

// Consume implements Consumer.
func (a *SumAggregate) Consume(batch []outbuf.Result) {
	var s uint64
	for _, r := range batch {
		s += a.Expr(r)
	}
	a.Sum += s
	a.Rows += uint64(len(batch))
}

// Merge implements Consumer.
func (a *SumAggregate) Merge(other Consumer) {
	o := other.(*SumAggregate)
	a.Sum += o.Sum
	a.Rows += o.Rows
}

// GroupSum computes SUM(expr) GROUP BY join key over the output stream.
// Memory is O(distinct output keys); under skew the output concentrates on
// few keys, under uniform data it is bounded by the key universe.
type GroupSum struct {
	Expr   func(outbuf.Result) uint64
	Groups map[relation.Key]uint64
}

// NewGroupSum returns a grouped SUM aggregate over expr.
func NewGroupSum(expr func(outbuf.Result) uint64) *GroupSum {
	return &GroupSum{Expr: expr, Groups: make(map[relation.Key]uint64)}
}

// Consume implements Consumer. Expr sees every result, but the map is
// updated once per maximal run of equal keys: a hot key's cross product
// leaves the join contiguously, so under skew a batch is a few long runs.
func (g *GroupSum) Consume(batch []outbuf.Result) {
	if len(batch) == 0 {
		return
	}
	groups, expr := g.Groups, g.Expr
	key, sum := batch[0].Key, uint64(0)
	for _, r := range batch {
		if r.Key != key {
			groups[key] += sum
			key, sum = r.Key, 0
		}
		sum += expr(r)
	}
	groups[key] += sum
}

// Merge implements Consumer.
func (g *GroupSum) Merge(other Consumer) {
	for k, v := range other.(*GroupSum).Groups {
		g.Groups[k] += v
	}
}

// SelectTop returns up to k (key, weight) pairs with the largest weights
// in counts, heaviest first, ties broken towards the smaller key. It is
// the one top-k selection: the service's topk consumer applies it to a
// GroupSum's exact counts, and the cluster router to the candidates its
// shards return, so the answer is the exact top-k of the join output,
// independent of how the output was partitioned or interleaved.
func SelectTop(counts map[relation.Key]uint64, k int) []KeyWeight {
	if k < 1 {
		k = 1
	}
	// Bounded insertion into a k-sized list: counts may hold every distinct
	// output key (exact group counts), so selection must stay O(n·k), not
	// sort the whole map. A k beyond the key count allocates no more than
	// the keys need.
	out := make([]KeyWeight, 0, min(k, len(counts)))
	for key, c := range counts {
		e := KeyWeight{Key: key, Weight: c}
		if len(out) == k && !less(out[k-1], e) {
			continue
		}
		i := len(out)
		if i < k {
			out = append(out, e)
		} else {
			i = k - 1
			out[i] = e
		}
		for ; i > 0 && less(out[i-1], out[i]); i-- {
			out[i], out[i-1] = out[i-1], out[i]
		}
	}
	return out
}

func less(a, b KeyWeight) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	return a.Key > b.Key
}

// KeyWeight is one entry of a top-k answer.
type KeyWeight struct {
	Key    relation.Key
	Weight uint64
}
