package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"

	"skewjoin"
	"skewjoin/internal/service"
)

// workload is one traffic mix: the inputs the benchmark generates from its
// seed, the deployment that serves them, and the single request the
// closed-loop client repeats.
type workload struct {
	name string
	why  string
	n    int     // tuples per side
	zipf float64 // zipf factor of both sides
	// shards is 0 for a single service, else the number of services
	// behind the cluster router.
	shards int
	req    service.JoinRequest
	// limit is the result limit the request asks for as /join?limit=N
	// (0 = full scan).
	limit int
}

// pinnedCalibration is the split planner's CPU cost model on the
// deployment the timed loop runs on, so that every split request runs the
// same plan: both backends, with the hot partition fragmented. Lazy
// self-calibration on the 2-vCPU reference host read 7.1–11.1 ns per built
// tuple and 5.8–7.6 ns per probe unit on coproc's inputs, and the plan
// flipped with it: at (8, 7) the hot partition stayed whole, at (7, 6) it
// fragmented, and the median round trip moved up to 26% between passes.
// These constants lie inside the fragmenting region (build 6–7.5, probe
// 5–6.5) for all 48 seeds tried. The timed set-ups still calibrate lazily.
var pinnedCalibration = skewjoin.Calibration{BuildNsPerTuple: 6.5, ProbeNsPerUnit: 5.5}

// Thread weights: requests default to the server's whole budget (2 threads
// on the 2-core reference host). The fleet pins 1 thread per shard call:
// its shards run the map-heavy "groups" consumer, which was bimodal at 2
// threads (p25 174 ms vs p50 337 ms) and unimodal at 1. Uniform keeps 2:
// its 2-thread medians repeated within ±4% over interleaved runs, its
// 1-thread medians only within ±25%. Coproc pins 2 threads because its
// plan depends on the thread count: with the pinned calibration, 1 thread
// kept the hot partition whole and 3 or 4 planned CPU-only.
//
// Sizes keep requests short enough for a 15 s run to reach the 100
// requests a p90 needs. A split request costs ~200 ms because the GPU
// simulator runs on the host. At 2^16 and zipf 0.9 coproc's plan depended
// on the seed: some seeds degenerated to GPU-only.
var workloads = []workload{
	{
		name: "uniform", n: 1 << 20, zipf: 0.0,
		why: "partition-bound Cbase: radix scatter and the build/probe join phase do nearly all the work; 16 MiB of input outgrows L2",
		req: service.JoinRequest{R: "r", S: "s", Consumer: "summary"},
	},
	{
		name: "skewed", n: 1 << 16, zipf: 1.0,
		why: "the paper's full-skew point: CSH's sampled skew detection and on-the-fly skew join dominate",
		req: service.JoinRequest{R: "r", S: "s", Consumer: "summary"},
	},
	{
		name: "interactive", n: 1 << 20, zipf: 0.9, limit: 1000,
		why: "short limited requests: the planner streams (SSJ), and per-request HTTP, planning and SSJ set-up dominate",
		req: service.JoinRequest{R: "r", S: "s"},
	},
	{
		name: "fleet", n: 1 << 14, zipf: 1.0, shards: 3,
		why: "3 shards behind the router: hot-key carving, fragment shipping, fan-out and the exact top-k group merge",
		req: service.JoinRequest{R: "r", S: "s", Consumer: "topk", K: 5, Routing: "auto", Threads: 1},
	},
	{
		name: "coproc", n: 1 << 15, zipf: 1.1,
		why: "split co-processing on the coupled device: the cost model, split executor and GPU simulator all run",
		req: service.JoinRequest{R: "r", S: "s", Backend: "split", Device: "coupled", Threads: 2},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// body returns the JSON request document the client posts to /join.
func (w workload) body() []byte {
	b, err := json.Marshal(w.req)
	if err != nil {
		panic(err) // a static struct of strings and ints always marshals
	}
	return b
}

// inputs are the POST /relations bodies of one seed's relations: the
// benchmark's own copy of the inputs, dropped before the timed loop.
type inputs struct {
	regR, regS []byte
}

// oracle holds the answers the inputs must produce.
type oracle struct {
	expected skewjoin.Summary
	top      []service.KeyWeight // exact top-k of the join output by key
}

func makeInputs(w workload, seed int64) (*inputs, *oracle, error) {
	r, s, err := skewjoin.GenerateZipfPair(w.n, w.zipf, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("generate inputs: %w", err)
	}
	want := &oracle{expected: skewjoin.Expected(r, s)}
	if w.req.Consumer == "topk" {
		want.top = exactTop(r, s, w.req.K)
	}
	in := &inputs{}
	if in.regR, err = registerBody("r", r); err != nil {
		return nil, nil, err
	}
	if in.regS, err = registerBody("s", s); err != nil {
		return nil, nil, err
	}
	return in, want, nil
}

func registerBody(name string, rel skewjoin.Relation) ([]byte, error) {
	var raw bytes.Buffer
	if _, err := rel.WriteTo(&raw); err != nil {
		return nil, fmt.Errorf("encode %s: %w", name, err)
	}
	return json.Marshal(service.RegisterRequest{Name: name, Data: base64.StdEncoding.EncodeToString(raw.Bytes())})
}

// exactTop is the top-k oracle: a key's share of the join output is
// freqR(key)·freqS(key); ties go to the smaller key.
func exactTop(r, s skewjoin.Relation, k int) []service.KeyWeight {
	fr := map[skewjoin.Key]uint64{}
	for _, t := range r.Tuples {
		fr[t.Key]++
	}
	fs := map[skewjoin.Key]uint64{}
	for _, t := range s.Tuples {
		fs[t.Key]++
	}
	var all []service.KeyWeight
	for key, cr := range fr {
		if cs := fs[key]; cs > 0 {
			all = append(all, service.KeyWeight{Key: uint32(key), Weight: cr * cs})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// checkPlan verifies that a split answer ran the plan pinnedCalibration
// yields: both backends, with the hot partition fragmented.
func (w workload) checkPlan(sp *service.SplitInfo) error {
	if w.req.Backend != "split" {
		return nil
	}
	if sp == nil || !sp.Split || !sp.Fragmented {
		return fmt.Errorf("split plan %+v, want a split with the hot partition fragmented", sp)
	}
	return nil
}

// check verifies one /join answer against the oracle.
func (want *oracle) check(w workload, resp *service.JoinResponse) error {
	if w.limit > 0 {
		st := resp.Stream
		if st == nil || !st.LimitHit {
			return fmt.Errorf("limited request did not report stream.limit_hit")
		}
		if resp.Matches < uint64(w.limit) || resp.Matches > want.expected.Matches {
			return fmt.Errorf("limited request returned %d matches, want %d..%d", resp.Matches, w.limit, want.expected.Matches)
		}
		return nil
	}
	if resp.Matches != want.expected.Matches || resp.Checksum != want.expected.Checksum {
		return fmt.Errorf("digest (%d, %#x), oracle (%d, %#x)",
			resp.Matches, resp.Checksum, want.expected.Matches, want.expected.Checksum)
	}
	if want.top != nil {
		if len(resp.TopKeys) != len(want.top) {
			return fmt.Errorf("top-k has %d keys, oracle %d", len(resp.TopKeys), len(want.top))
		}
		for i, kw := range want.top {
			if resp.TopKeys[i] != kw {
				return fmt.Errorf("top-k[%d] = %+v, oracle %+v", i, resp.TopKeys[i], kw)
			}
		}
	}
	return nil
}
