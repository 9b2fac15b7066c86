// Sharded-tier benchmark: the machine-readable artifact for the cluster
// router's skew-aware routing. cmd/skewbench -exp shard runs it and can
// write the result as BENCH_shard.json.
//
// The harness is fully in-process: it stands up N skewjoind shards as
// httptest servers plus a router in front of them, registers the paper's
// zipf workload through the router, and joins it under each routing
// policy. Three policies run per zipf: "hash" (pure consistent-hash
// placement), "frag" (fragment-and-replicate for the hot keys), and
// "hash2" — a second, identical hash run that serves as the A/A control:
// the hash-vs-hash2 spread is the harness noise floor, committed next to
// the hash-vs-frag gap so the frag win is legible as signal.
//
// The shards time-share the benchmark host's core(s), so the router runs
// in its serialized measurement mode (Config.SerialJoins): shard calls
// execute one at a time, each shard's reported execution time measures
// its share of the join's work undisturbed, and the makespan — the
// fleet's wall clock with a core per shard — is the slowest shard's sum.
// The per-shard NM-join busy time (build+probe, thread-CPU clock) rides
// along as a secondary column.
//
// The harness gates two properties. At the sweep's deepest skew point
// (the largest zipf >= 1.0) frag's makespan must beat BOTH hash runs —
// the win must clear the A/A spread. At every other zipf frag must stay
// within a small factor of the worse hash run: below the knee it resolves
// to hash placement and must not drift, and at the knee itself the win
// is real only at scale (at the committed n=65536 frag beats hash from
// zipf 1.0 on; at smoke sizes the extra per-call overhead of six shard
// calls can eat the margin, which is a fixed cost, not a regression).
// Every run is verified against the join oracle. Violations land in
// Errors and fail the run.
package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"skewjoin/internal/cluster"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/service"
)

// shardZipfs: uniform and moderate skew (where hash placement is already
// balanced and frag must not regress), the paper's full-skew point and
// slightly beyond (where the hot key's quadratic output swamps its owner
// shard and frag has to win).
var shardZipfs = []float64{0.0, 0.75, 1.0, 1.1}

const shardCount = 3

// shardMaxRegression bounds frag at the non-anchor zipf points: it must
// not exceed shardMaxRegression times the worse hash run.
const shardMaxRegression = 1.15

// shardSweep joins through the router at url under each routing (the
// arms; Par is the routing the request carries, hash2 the A/A control).
// Each workload is registered through the router as the shards' own
// generated streams, which are the runner's workload tuple for tuple.
func shardSweep(cfg Config, url string) *Sweep {
	cfg = cfg.Defaults()
	zipfs := cfg.zipfs(shardZipfs)
	// The anchor point — where frag's win is gated strictly — is the
	// sweep's deepest skew at or beyond the knee.
	anchor := 0.0
	for _, z := range zipfs {
		if z >= 1.0 && z > anchor {
			anchor = z
		}
	}
	names := func(z float64) (r, s string) {
		return fmt.Sprintf("bench_r_%03d", int(z*100)), fmt.Sprintf("bench_s_%03d", int(z*100))
	}
	return &Sweep{
		Name: "shard", Zipfs: zipfs,
		Arms: []Arm{{"hash", "hash"}, {"frag", "frag"}, {"hash2", "hash"}},
		Twin: [2]string{"hash", "hash2"},
		// One untimed join per arm: the first join against a fresh
		// relation pays one-off costs (page faults, fragment shipping)
		// that belong to no policy's steady state.
		Warm: true,
		Groups: func(w *Workload) ([]Group, error) {
			r, s := names(w.Theta)
			for name, stream := range map[string]int64{r: 1, s: 2} {
				if err := shardCall(url, "POST", "/relations", service.RegisterRequest{
					Name:     name,
					Generate: &service.GenerateSpec{N: cfg.Tuples, Zipf: w.Theta, Seed: cfg.Seed, Stream: stream},
				}, nil, http.StatusCreated); err != nil {
					return nil, err
				}
			}
			return []Group{{}}, nil
		},
		Measure: func(w *Workload, _ Group, a Arm) (Sample, error) {
			r, s := names(w.Theta)
			var resp cluster.JoinResponse
			if err := shardCall(url, "POST", "/join", service.JoinRequest{
				R: r, S: s, Routing: a.Par.(string),
			}, &resp, http.StatusOK); err != nil {
				return Sample{}, err
			}
			cl := resp.Cluster
			if cl == nil {
				return Sample{}, errors.New("response missing cluster breakdown")
			}
			work := make([]int64, len(cl.Shards))
			var makespan, total, busy int64
			calls := 0
			for i, sh := range cl.Shards {
				work[i] = int64(sh.JoinMS * 1e6)
				total += work[i]
				makespan = max(makespan, work[i])
				busy += int64(sh.BusyMS * 1e6)
				calls += sh.Calls
			}
			least := makespan
			for _, b := range work {
				least = min(least, b)
			}
			imbalance := 0.0 // 0 when a shard was idle
			if least > 0 {
				imbalance = float64(makespan) / float64(least)
			}
			return Sample{Clock: time.Duration(makespan), Out: &outbuf.Summary{Count: resp.Matches, Checksum: resp.Checksum},
				Metrics: []Metric{
					// The routing the router executed and the keys frag
					// carved out follow from the relations' statistics.
					{Name: "resolved", Value: cl.Policy, Fixed: true},
					{Name: "hot_keys", Value: len(cl.HotKeys), Fixed: true},
					// Shard /join calls issued: shards for hash, up to 2x
					// shards for frag.
					{Name: "calls", Value: calls},
					// The slowest shard's summed execution time under the
					// serialized fan-out: the join's wall clock on a fleet
					// with a core per shard.
					{Name: "makespan_ns", Value: makespan},
					// All shards summed; frag pays replication here.
					{Name: "total_ns", Value: total},
					{Name: "per_shard_ns", Value: work},
					{Name: "imbalance", Value: imbalance},
					// Fleet-wide NM-join build+probe thread-CPU time, for
					// context (csh does its heavy-hitter work in the
					// partition phase, which this deliberately excludes).
					{Name: "nm_busy_ns", Value: busy},
				}}, nil
		},
		Gate:   func(group []Cell) []string { return shardGate(group, group[0].Zipf == anchor && anchor >= 1.0) },
		Config: map[string]any{"shards": shardCount},
		Print:  printShard,
	}
}

// ShardBench measures the cluster router across zipf and routing policy
// on an in-process 3-shard fleet.
func ShardBench(cfg Config) (*Artifact, error) {
	urls := make([]string, shardCount)
	for i := range urls {
		ts := httptest.NewServer(service.New(service.Config{ThreadBudget: 2, MaxQueue: 32}))
		defer ts.Close()
		urls[i] = ts.URL
	}
	rt, err := cluster.NewRouter(cluster.Config{
		ShardURLs:    urls,
		ShardTimeout: 5 * time.Minute,
		SerialJoins:  true,
	})
	if err != nil {
		return nil, err
	}
	router := httptest.NewServer(rt)
	defer router.Close()
	return Run(cfg, shardSweep(cfg, router.URL))
}

// shardGate gates one zipf group. anchor marks the sweep's deepest skew
// point, where frag must beat both hash runs (the win must clear the A/A
// spread); elsewhere frag must stay within shardMaxRegression of the
// worse hash run. Everywhere the router's auto threshold must have
// resolved frag to the expected shape — no hot keys below the paper's
// skew knee, some at or above it.
func shardGate(group []Cell, anchor bool) []string {
	var frag *Cell
	worstHash, bestHash := int64(0), int64(0)
	for i := range group {
		c := &group[i]
		switch c.Arm {
		case "frag":
			frag = c
		default:
			worstHash = max(worstHash, c.BestNS)
			if bestHash == 0 || c.BestNS < bestHash {
				bestHash = c.BestNS
			}
		}
	}
	if frag == nil || frag.BestNS == 0 || bestHash == 0 {
		return nil
	}
	var errs []string
	if hot := frag.num("hot_keys"); frag.Zipf >= 1.0 && hot == 0 {
		errs = append(errs, fmt.Sprintf("frag @ zipf %.2f: carved out no hot keys at full skew", frag.Zipf))
	} else if frag.Zipf < 1.0 && hot != 0 {
		errs = append(errs, fmt.Sprintf("frag @ zipf %.2f: carved out %.0f hot keys below the skew knee", frag.Zipf, hot))
	}
	if anchor {
		if frag.BestNS >= bestHash {
			errs = append(errs, fmt.Sprintf(
				"frag @ zipf %.2f: makespan %s does not beat the better hash run %s (A/A spread %s..%s)",
				frag.Zipf, FormatDuration(time.Duration(frag.BestNS)), FormatDuration(time.Duration(bestHash)),
				FormatDuration(time.Duration(bestHash)), FormatDuration(time.Duration(worstHash))))
		}
	} else if float64(frag.BestNS) > shardMaxRegression*float64(worstHash) {
		errs = append(errs, fmt.Sprintf(
			"frag @ zipf %.2f: makespan %s exceeds %.0f%% of the worse hash run %s",
			frag.Zipf, FormatDuration(time.Duration(frag.BestNS)), shardMaxRegression*100,
			FormatDuration(time.Duration(worstHash))))
	}
	return errs
}

// shardCall is the harness's tiny HTTP client: JSON in, JSON out, one
// expected status.
func shardCall(base, method, path string, reqBody, out any, wantStatus int) error {
	var body io.Reader
	if reqBody != nil {
		raw, err := json.Marshal(reqBody)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		return err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// printShard renders one block per zipf, one line per policy with the
// makespan, the total, the per-shard spread, and the plan shape.
func printShard(w io.Writer, a *Artifact) {
	fmt.Fprintf(w, "== sharded-tier benchmark (n=%v, %v shards, best of %v) ==\n",
		a.Config["tuples"], a.Config["shards"], a.Config["repeats"])
	fmt.Fprintf(w, "makespan = slowest shard's execution time under serialized fan-out; hash2 is the A/A control\n")
	for i, c := range a.Cells {
		if i == 0 || c.Zipf != a.Cells[i-1].Zipf {
			fmt.Fprintf(w, "-- zipf %.2f --\n", c.Zipf)
		}
		fmt.Fprintf(w, "%-6s %-5v hot=%-3.0f calls=%-2.0f  makespan %10s  total %10s  imbalance %5.2f\n",
			c.Arm, c.Metrics["resolved"], c.num("hot_keys"), c.num("calls"),
			ns(c.num("makespan_ns")), ns(c.num("total_ns")), c.num("imbalance"))
	}
}
