// Query pipeline: the paper's volcano consumption model end-to-end.
//
// The paper motivates its output-buffer design with volcano-style
// processing: "the join output is often consumed by an upper level query
// operator" (§III). This example runs a small analytical query
//
//	SELECT SUM(r.payload + s.payload), TOP-5 keys BY output count
//	FROM   (SELECT * FROM R WHERE payload % 4 != 0) r
//	JOIN   S ON r.key = s.key
//
// as a pipeline: scan→filter feeds the skew-conscious join, whose output
// rings are drained batch-by-batch into a SUM aggregate and a GROUP BY
// count, from which the top 5 keys are selected — no join output is ever
// materialised.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"skewjoin"
	"skewjoin/internal/volcano"
)

func main() {
	const n = 150_000
	r, s, err := skewjoin.GenerateZipfPair(n, 0.9, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Scan → filter: drop a quarter of R before the join.
	filtered := volcano.NewScan(r).
		Filter(func(t skewjoin.Tuple) bool { return t.Payload%4 != 0 }).
		Materialize()
	fmt.Printf("R: %d tuples after filter (from %d)\n", filtered.Len(), r.Len())

	// Upper operators: a SUM aggregate and a per-key COUNT, one instance
	// per worker, merged after the join.
	sumExpr := func(res skewjoin.JoinResult) uint64 {
		return uint64(res.PayloadR) + uint64(res.PayloadS)
	}
	sum := volcano.NewSum(sumExpr)
	groups := volcano.NewGroupSum(func(res skewjoin.JoinResult) uint64 { return 1 })
	sumFactory, collectSum := volcano.Sink(sum, func() volcano.Consumer { return volcano.NewSum(sumExpr) })
	grpFactory, collectGrp := volcano.Sink(groups, func() volcano.Consumer {
		return volcano.NewGroupSum(func(res skewjoin.JoinResult) uint64 { return 1 })
	})

	res, err := skewjoin.Join(skewjoin.CSH, filtered, s, &skewjoin.Options{
		Consumer: func(worker int) skewjoin.ResultConsumer {
			consumeSum := sumFactory(worker)
			consumeGrp := grpFactory(worker)
			return func(batch []skewjoin.JoinResult) {
				consumeSum(batch)
				consumeGrp(batch)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	collectSum()
	collectGrp()

	fmt.Printf("join produced %d rows in %v (CSH)\n", res.Matches, res.Total)
	fmt.Printf("SUM(r.payload + s.payload) = %d over %d rows\n", sum.Sum, sum.Rows)
	if sum.Rows != res.Matches {
		log.Fatalf("consumer saw %d rows but the join reported %d", sum.Rows, res.Matches)
	}
	fmt.Printf("GROUP BY key produced %d groups\n", len(groups.Groups))
	fmt.Println("top output keys by join-result count:")
	for _, kw := range volcano.SelectTop(groups.Groups, 5) {
		fmt.Printf("  key %-12d %d results\n", kw.Key, kw.Weight)
	}
	fmt.Println("\nEvery batch was consumed from the overwriting output ring —")
	fmt.Println("the full join result never existed in memory at once.")
}
