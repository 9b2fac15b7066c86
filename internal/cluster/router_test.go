package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"skewjoin"
	"skewjoin/internal/oracle"
	"skewjoin/internal/service"
)

// testCluster is a full in-process fleet: N shard servers plus the router,
// all over httptest.
type testCluster struct {
	router   *Router
	routerTS *httptest.Server
	shardTS  []*httptest.Server
}

func newTestCluster(t *testing.T, nShards int, mutate func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, nShards)
	for i := 0; i < nShards; i++ {
		ts := httptest.NewServer(service.New(service.Config{ThreadBudget: 2, MaxQueue: 8}))
		tc.shardTS = append(tc.shardTS, ts)
		urls[i] = ts.URL
	}
	cfg := Config{ShardURLs: urls, ShardTimeout: 30 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.routerTS = httptest.NewServer(rt)
	t.Cleanup(func() {
		tc.routerTS.Close()
		for _, ts := range tc.shardTS {
			ts.Close()
		}
	})
	return tc
}

func doJSON(t *testing.T, method, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

func registerZipf(t *testing.T, base, name string, n int, theta float64, seed, stream int64) {
	t.Helper()
	status, _, raw := doJSON(t, "POST", base+"/relations", service.RegisterRequest{
		Name:     name,
		Generate: &service.GenerateSpec{N: n, Zipf: theta, Seed: seed, Stream: stream},
	})
	if status != http.StatusCreated {
		t.Fatalf("register %q: status %d: %s", name, status, raw)
	}
}

func clusterJoin(t *testing.T, base string, req service.JoinRequest) JoinResponse {
	t.Helper()
	status, _, raw := doJSON(t, "POST", base+"/join", req)
	if status != http.StatusOK {
		t.Fatalf("join %+v: status %d: %s", req, status, raw)
	}
	var jr JoinResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("decode join response: %v", err)
	}
	return jr
}

// TestClusterMatchesSingleNodeAndOracle is the tentpole acceptance check:
// for uniform, moderate and heavy skew, a router over 3 shards must return
// summaries, counts, groups and top-k identical to a single-node server
// and to the closed-form oracle — under both routing policies — and auto
// must resolve to frag exactly when the workload is skewed enough to pay.
func TestClusterMatchesSingleNodeAndOracle(t *testing.T) {
	const n = 1 << 14
	tc := newTestCluster(t, 3, nil)
	single := httptest.NewServer(service.New(service.Config{ThreadBudget: 2, MaxQueue: 8}))
	defer single.Close()

	for _, theta := range []float64{0, 0.75, 1.1} {
		seed := int64(40 + int(theta*100))
		rName, sName := "r", "s"
		registerZipf(t, tc.routerTS.URL, rName, n, theta, seed, 1)
		registerZipf(t, tc.routerTS.URL, sName, n, theta, seed, 2)
		registerZipf(t, single.URL, rName, n, theta, seed, 1)
		registerZipf(t, single.URL, sName, n, theta, seed, 2)

		rRel, err := skewjoin.GenerateZipf(n, theta, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		sRel, err := skewjoin.GenerateZipf(n, theta, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Expected(rRel, sRel)

		for _, routing := range []string{"auto", "hash", "frag"} {
			// Summary: matches + checksum against the oracle.
			jr := clusterJoin(t, tc.routerTS.URL, service.JoinRequest{R: rName, S: sName, Routing: routing})
			if jr.Matches != want.Count || jr.Checksum != want.Checksum {
				t.Errorf("theta=%g routing=%s: summary (%d, %#x) != oracle (%d, %#x)",
					theta, routing, jr.Matches, jr.Checksum, want.Count, want.Checksum)
			}
			if jr.Cluster == nil || len(jr.Cluster.Shards) != 3 {
				t.Fatalf("theta=%g routing=%s: missing cluster breakdown: %+v", theta, routing, jr.Cluster)
			}

			// Count consumer.
			jr = clusterJoin(t, tc.routerTS.URL, service.JoinRequest{R: rName, S: sName, Routing: routing, Consumer: "count"})
			if jr.Rows == nil || *jr.Rows != want.Count {
				t.Errorf("theta=%g routing=%s: rows %v != %d", theta, routing, jr.Rows, want.Count)
			}
		}

		// Auto must pick frag exactly when the skew pays for replication.
		jr := clusterJoin(t, tc.routerTS.URL, service.JoinRequest{R: rName, S: sName, Routing: "auto"})
		wantPolicy := "hash"
		if theta >= 1.0 {
			wantPolicy = "frag"
		}
		if jr.Cluster.Policy != wantPolicy {
			t.Errorf("theta=%g: auto resolved to %q, want %q (hot keys %v)",
				theta, jr.Cluster.Policy, wantPolicy, jr.Cluster.HotKeys)
		}

		// Groups: exact per-key counts must be identical to the
		// single-node groups consumer, entry for entry.
		var singleGroups service.JoinResponse
		status, _, raw := doJSON(t, "POST", single.URL+"/join", service.JoinRequest{R: rName, S: sName, Consumer: "groups"})
		if status != http.StatusOK {
			t.Fatalf("single-node groups join: %d: %s", status, raw)
		}
		if err := json.Unmarshal(raw, &singleGroups); err != nil {
			t.Fatal(err)
		}
		for _, routing := range []string{"hash", "frag"} {
			jr := clusterJoin(t, tc.routerTS.URL, service.JoinRequest{R: rName, S: sName, Routing: routing, Consumer: "groups"})
			if len(jr.Groups) != len(singleGroups.Groups) {
				t.Fatalf("theta=%g routing=%s: %d groups, single-node has %d",
					theta, routing, len(jr.Groups), len(singleGroups.Groups))
			}
			for i := range jr.Groups {
				if jr.Groups[i] != singleGroups.Groups[i] {
					t.Fatalf("theta=%g routing=%s: group[%d] = %+v, single-node %+v",
						theta, routing, i, jr.Groups[i], singleGroups.Groups[i])
				}
			}
		}

		// Top-k: under every routing policy the fleet's candidate merge
		// must return exactly the single node's exact top-k.
		var singleTop service.JoinResponse
		status, _, raw = doJSON(t, "POST", single.URL+"/join", service.JoinRequest{R: rName, S: sName, Consumer: "topk", K: 5})
		if status != http.StatusOK {
			t.Fatalf("single-node topk join: %d: %s", status, raw)
		}
		if err := json.Unmarshal(raw, &singleTop); err != nil {
			t.Fatal(err)
		}
		if len(singleTop.TopKeys) != 5 {
			t.Fatalf("theta=%g: single-node topk returned %d keys, want 5", theta, len(singleTop.TopKeys))
		}
		for _, routing := range []string{"auto", "hash", "frag"} {
			jr := clusterJoin(t, tc.routerTS.URL, service.JoinRequest{R: rName, S: sName, Routing: routing, Consumer: "topk", K: 5})
			if len(jr.TopKeys) != len(singleTop.TopKeys) {
				t.Fatalf("theta=%g routing=%s: topk returned %d keys, want %d", theta, routing, len(jr.TopKeys), len(singleTop.TopKeys))
			}
			for i, want := range singleTop.TopKeys {
				if jr.TopKeys[i] != want {
					t.Errorf("theta=%g routing=%s: topk[%d] = %+v, single-node %+v", theta, routing, i, jr.TopKeys[i], want)
				}
			}
		}

		// Reset the catalogs for the next theta.
		for _, name := range []string{rName, sName} {
			if status, _, raw := doJSON(t, "DELETE", tc.routerTS.URL+"/relations/"+name, nil); status != http.StatusNoContent {
				t.Fatalf("drop %q: %d: %s", name, status, raw)
			}
			if status, _, _ := doJSON(t, "DELETE", single.URL+"/relations/"+name, nil); status != http.StatusNoContent {
				t.Fatalf("single-node drop %q failed", name)
			}
		}
	}
}

// TestClusterRelationLifecycle covers the catalog mirror: list/get carry
// the cached stats (TopKeys included — the hot-key rule's input), and
// drops cascade to shard fragments.
func TestClusterRelationLifecycle(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	registerZipf(t, tc.routerTS.URL, "r", 1<<13, 1.1, 5, 1)
	registerZipf(t, tc.routerTS.URL, "s", 1<<13, 1.1, 5, 2)

	status, _, raw := doJSON(t, "GET", tc.routerTS.URL+"/relations/r", nil)
	if status != http.StatusOK {
		t.Fatalf("get relation: %d: %s", status, raw)
	}
	var info service.RelationInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 1<<13 || len(info.TopKeys) == 0 {
		t.Fatalf("router relation info lacks stats: %+v", info)
	}
	// Duplicate registration must 409 without disturbing the catalog.
	status, _, _ = doJSON(t, "POST", tc.routerTS.URL+"/relations", service.RegisterRequest{
		Name: "r", Generate: &service.GenerateSpec{N: 16, Zipf: 0, Seed: 1},
	})
	if status != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", status)
	}

	// A frag join ships fragments; dropping the relations must remove
	// every shard-side registration, fragments included.
	clusterJoin(t, tc.routerTS.URL, service.JoinRequest{R: "r", S: "s", Routing: "frag"})
	for _, name := range []string{"r", "s"} {
		if status, _, _ := doJSON(t, "DELETE", tc.routerTS.URL+"/relations/"+name, nil); status != http.StatusNoContent {
			t.Fatalf("drop %q: %d", name, status)
		}
	}
	for i, ts := range tc.shardTS {
		status, _, raw := doJSON(t, "GET", ts.URL+"/relations", nil)
		if status != http.StatusOK {
			t.Fatal("shard list failed")
		}
		var infos []service.RelationInfo
		if err := json.Unmarshal(raw, &infos); err != nil {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Errorf("shard %d still holds %d relations after drop: %+v", i, len(infos), infos)
		}
	}
}

// TestClusterShardDown maps an unreachable shard to 502 for joins and
// rolls a partially-shipped registration back.
func TestClusterShardDown(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		c.Retries = -1 // no retries: the shard is gone, fail fast
		c.ShardTimeout = 2 * time.Second
	})
	registerZipf(t, tc.routerTS.URL, "r", 1<<12, 0.9, 8, 1)
	registerZipf(t, tc.routerTS.URL, "s", 1<<12, 0.9, 8, 2)

	tc.shardTS[1].Close()

	status, _, raw := doJSON(t, "POST", tc.routerTS.URL+"/join", service.JoinRequest{R: "r", S: "s"})
	if status != http.StatusBadGateway {
		t.Fatalf("join with shard down: status %d, want 502: %s", status, raw)
	}
	var er service.ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
		t.Fatalf("502 body lacks the error: %s", raw)
	}

	// Registration with a dead shard fails and must leave no trace on the
	// survivors.
	status, _, _ = doJSON(t, "POST", tc.routerTS.URL+"/relations", service.RegisterRequest{
		Name: "t", Generate: &service.GenerateSpec{N: 1 << 10, Zipf: 0.5, Seed: 3},
	})
	if status != http.StatusBadGateway {
		t.Fatalf("register with shard down: status %d, want 502", status)
	}
	for _, i := range []int{0, 2} {
		_, _, raw := doJSON(t, "GET", tc.shardTS[i].URL+"/relations/t", nil)
		var infos service.RelationInfo
		if json.Unmarshal(raw, &infos) == nil && infos.Name == "t" {
			t.Errorf("shard %d kept rolled-back relation %q", i, "t")
		}
	}
	if status, _, _ := doJSON(t, "GET", tc.routerTS.URL+"/relations/t", nil); status != http.StatusNotFound {
		t.Errorf("router kept rolled-back relation: status %d", status)
	}
}

// TestClusterRetryRecovers exercises the bounded-retry path: a shard that
// sheds the first join attempt with 503 and serves the second must not
// surface an error to the client.
func TestClusterRetryRecovers(t *testing.T) {
	const n = 1 << 12
	failures := 2
	var inner http.Handler
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/join" && failures > 0 {
			failures--
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()
	inner = service.New(service.Config{ThreadBudget: 2, MaxQueue: 8})

	healthy := httptest.NewServer(service.New(service.Config{ThreadBudget: 2, MaxQueue: 8}))
	defer healthy.Close()

	rt, err := NewRouter(Config{
		ShardURLs:    []string{flaky.URL, healthy.URL},
		Retries:      2,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	registerZipf(t, ts.URL, "r", n, 0.9, 4, 1)
	registerZipf(t, ts.URL, "s", n, 0.9, 4, 2)
	rRel, _ := skewjoin.GenerateZipf(n, 0.9, 4, 1)
	sRel, _ := skewjoin.GenerateZipf(n, 0.9, 4, 2)
	want := oracle.Expected(rRel, sRel)

	jr := clusterJoin(t, ts.URL, service.JoinRequest{R: "r", S: "s"})
	if jr.Matches != want.Count || jr.Checksum != want.Checksum {
		t.Errorf("retried join summary (%d, %#x) != oracle (%d, %#x)", jr.Matches, jr.Checksum, want.Count, want.Checksum)
	}
	if failures != 0 {
		t.Errorf("flaky shard was never retried (remaining failures %d)", failures)
	}
}

// TestClusterShedsWith429 pins router-level admission: with shard 0's
// budget held and no queue, a join is shed with 429 and a Retry-After.
func TestClusterShedsWith429(t *testing.T) {
	tc := newTestCluster(t, 2, func(c *Config) {
		c.ShardBudget = 1
		c.ShardQueue = -1
	})
	registerZipf(t, tc.routerTS.URL, "r", 1<<10, 0.5, 6, 1)
	registerZipf(t, tc.routerTS.URL, "s", 1<<10, 0.5, 6, 2)

	release, err := tc.router.shards[0].adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	status, hdr, raw := doJSON(t, "POST", tc.routerTS.URL+"/join", service.JoinRequest{R: "r", S: "s"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("join with budget held: status %d, want 429: %s", status, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After")
	}
	var er service.ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
		t.Errorf("429 body lacks the error: %s", raw)
	}

	st := statsOf(t, tc.routerTS.URL)
	if st.Shed == 0 {
		t.Error("/cluster/stats shed counter did not move")
	}
}

// TestClusterTimeoutMaps504 bounds a wedged shard: when a shard sits on
// /join past the request deadline, the client gets 504.
func TestClusterTimeoutMaps504(t *testing.T) {
	var inner http.Handler
	stuck := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/join" {
			select {
			case <-stuck:
			case <-r.Context().Done():
			}
			http.Error(w, `{"error":"too late"}`, http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer slow.Close()
	// Unblock the handler before slow.Close() (defers run LIFO) so the
	// server shutdown does not wait out its connection-drain timeout.
	defer close(stuck)
	inner = service.New(service.Config{ThreadBudget: 2, MaxQueue: 8})

	rt, err := NewRouter(Config{
		ShardURLs: []string{slow.URL},
		Retries:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	registerZipf(t, ts.URL, "r", 1<<10, 0.5, 2, 1)
	registerZipf(t, ts.URL, "s", 1<<10, 0.5, 2, 2)

	status, _, raw := doJSON(t, "POST", ts.URL+"/join", service.JoinRequest{R: "r", S: "s", TimeoutMS: 100})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("join against stuck shard: status %d, want 504: %s", status, raw)
	}
}

func statsOf(t *testing.T, base string) StatsResponse {
	t.Helper()
	status, _, raw := doJSON(t, "GET", base+"/cluster/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /cluster/stats: %d: %s", status, raw)
	}
	var st StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestClusterStatsAggregates checks the fleet stats view: every shard
// appears healthy with its own snapshot, and the fleet join counter moves.
func TestClusterStatsAggregates(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	registerZipf(t, tc.routerTS.URL, "r", 1<<12, 1.1, 9, 1)
	registerZipf(t, tc.routerTS.URL, "s", 1<<12, 1.1, 9, 2)
	clusterJoin(t, tc.routerTS.URL, service.JoinRequest{R: "r", S: "s", Routing: "frag"})

	st := statsOf(t, tc.routerTS.URL)
	if len(st.Shards) != 3 {
		t.Fatalf("stats cover %d shards, want 3", len(st.Shards))
	}
	for _, sh := range st.Shards {
		if !sh.Healthy || sh.Stats == nil {
			t.Errorf("shard %d unhealthy in stats: %+v", sh.Shard, sh.Error)
			continue
		}
		if sh.Stats.Admission.Completed == 0 {
			t.Errorf("shard %d reports no completed joins", sh.Shard)
		}
	}
	if st.Joins == 0 {
		t.Error("fleet join counter did not move")
	}
	if len(st.Relations) != 2 {
		t.Errorf("stats list %d relations, want 2", len(st.Relations))
	}

	// The relation catalog only lives on the router + shards; confirm the
	// single-node tier rejects routed requests outright (fail-loudly
	// contract the router relies on).
	status, _, raw := doJSON(t, "POST", tc.shardTS[0].URL+"/join",
		service.JoinRequest{R: "r", S: "s", Routing: "frag"})
	if status != http.StatusBadRequest {
		t.Errorf("shard accepted a routed request: status %d: %s", status, raw)
	}
}
