// Command perfbench is the repository's end-to-end benchmark. It serves the
// join service (or three services behind the cluster router) on loopback
// listeners inside its own process, registers inputs it generates from its
// seed, and drives POST /join from one closed-loop client, checking every
// answer against the oracle.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays sampled requests through each layer's public functions and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(benchMain())
}

func benchMain() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 15, "length of the timed loop")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *trace != 0 && *trace != 1) {
		err = fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	printEnv(w, *seed, *trace)
	loop := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = tracedRun(ctx, w, *seed, loop)
	} else {
		res, err = endToEndRun(ctx, w, *seed, loop)
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("interrupted: %w", ctx.Err())
	}
	if res.Attempted > 0 {
		fmt.Printf("fail_ratio: %.4f ratio (%d of %d requests)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printEnv(w workload, seed int64, trace int) {
	rev := os.Getenv("PERFBENCH_REVISION")
	if rev == "" {
		rev = "unknown"
	}
	env := map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "GOMAXPROCS": runtime.GOMAXPROCS(0),
		"GOGC": os.Getenv("GOGC"), "revision": rev,
	}
	def := map[string]any{
		"workload": w.name, "seed": seed, "trace": trace, "tuples_per_side": w.n, "zipf": w.zipf,
		"shards": w.shards, "clients": 1, "request": w.req, "limit": w.limit,
		"thread_weight": threadWeight(w), "why": w.why,
	}
	for _, kv := range []struct {
		k string
		v any
	}{{"env", env}, {"workload", def}} {
		b, err := json.Marshal(kv.v)
		if err != nil {
			b = []byte(err.Error())
		}
		fmt.Printf("%s: %s\n", kv.k, b)
	}
}

// threadWeight is the worker-thread weight one join request (or, for the
// fleet, one shard call) is admitted with.
func threadWeight(w workload) int {
	if w.req.Threads > 0 {
		return w.req.Threads
	}
	return runtime.GOMAXPROCS(0) // the service's default budget
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
