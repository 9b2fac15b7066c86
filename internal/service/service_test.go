package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"skewjoin"
)

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
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
	return resp.StatusCode, raw
}

func register(t *testing.T, base, name string, spec GenerateSpec) {
	t.Helper()
	status, raw := doJSON(t, "POST", base+"/relations", RegisterRequest{Name: name, Generate: &spec})
	if status != http.StatusCreated {
		t.Fatalf("register %q: status %d: %s", name, status, raw)
	}
}

func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	status, raw := doJSON(t, "GET", base+"/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /stats: status %d: %s", status, raw)
	}
	var st StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return st
}

// TestServiceEndToEnd is the acceptance scenario from the issue: two
// registered relations, concurrent auto joins saturating the admission
// budget, clean 429s for the overflow, summaries that match a direct
// library call, and /stats counters that reconcile.
func TestServiceEndToEnd(t *testing.T) {
	// MaxQueue -1 disables queueing entirely, which makes rejection
	// deterministic: while the budget is held, every new arrival is shed.
	srv := New(Config{ThreadBudget: 4, MaxQueue: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const (
		smallN     = 1 << 16
		smallTheta = 0.9
		bigTheta   = 1.0
	)
	// At theta 1.0 the top key appears ~n/H(n) times on each side, so the
	// join output is quadratic in it: 1<<19 tuples yield ~1.5e9 matches —
	// long enough (seconds) that the shed requests below reliably arrive
	// while the budget is held, without the tens of seconds a larger table
	// would cost the suite. Under -short (how CI runs the race detector,
	// which slows the join ~15x) a quarter of that keeps the same shape.
	bigN := 1 << 19
	if testing.Short() {
		bigN = 1 << 17
	}
	register(t, ts.URL, "r", GenerateSpec{N: smallN, Zipf: smallTheta, Seed: 42, Stream: 0})
	register(t, ts.URL, "s", GenerateSpec{N: smallN, Zipf: smallTheta, Seed: 42, Stream: 1})
	register(t, ts.URL, "bigr", GenerateSpec{N: bigN, Zipf: bigTheta, Seed: 7, Stream: 0})
	register(t, ts.URL, "bigs", GenerateSpec{N: bigN, Zipf: bigTheta, Seed: 7, Stream: 1})

	// One auto join; its summary must match running the reported algorithm
	// directly against identically generated relations.
	status, raw := doJSON(t, "POST", ts.URL+"/join", JoinRequest{R: "r", S: "s"})
	if status != http.StatusOK {
		t.Fatalf("join: status %d: %s", status, raw)
	}
	var first JoinResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if !first.Auto || first.Planner == nil {
		t.Errorf("auto join did not report planner evidence: %+v", first)
	}
	if len(first.Phases) == 0 {
		t.Error("join response has no phase timings")
	}
	rl, err := skewjoin.GenerateZipf(smallN, smallTheta, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := skewjoin.GenerateZipf(smallN, smallTheta, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := skewjoin.Join(skewjoin.Algorithm(first.Algorithm), rl, sl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Matches != direct.Matches || first.Checksum != direct.Checksum {
		t.Errorf("served join (%d, %#x) != direct %s join (%d, %#x)",
			first.Matches, first.Checksum, first.Algorithm, direct.Matches, direct.Checksum)
	}

	// Saturate the budget with a long full-weight join, then verify that
	// concurrent auto joins are shed with clean 429 responses.
	longDone := make(chan error, 1)
	go func() {
		// Explicit generous deadline: under the race detector this join
		// runs an order of magnitude slower than wall-clock normal.
		status, raw := doJSON(t, "POST", ts.URL+"/join", JoinRequest{R: "bigr", S: "bigs", TimeoutMS: 300_000})
		if status != http.StatusOK {
			longDone <- fmt.Errorf("long join: status %d: %s", status, raw)
			return
		}
		longDone <- nil
	}()
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, ts.URL).Admission.InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("long join never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	const shed = 3
	var wg sync.WaitGroup
	rejected := make([]error, shed)
	for i := 0; i < shed; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest("POST", ts.URL+"/join",
				bytes.NewReader([]byte(`{"r":"r","s":"s"}`)))
			if err != nil {
				rejected[i] = err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				rejected[i] = err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusTooManyRequests {
				rejected[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			if resp.Header.Get("Retry-After") == "" {
				rejected[i] = fmt.Errorf("429 without Retry-After")
				return
			}
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				rejected[i] = fmt.Errorf("429 body not a clean error: %q", raw)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range rejected {
		if err != nil {
			t.Errorf("over-budget request %d: %v", i, err)
		}
	}
	if err := <-longDone; err != nil {
		t.Fatal(err)
	}

	// The server must recover once the budget frees up.
	status, raw = doJSON(t, "POST", ts.URL+"/join", JoinRequest{R: "s", S: "r"})
	if status != http.StatusOK {
		t.Fatalf("post-saturation join: status %d: %s", status, raw)
	}

	// Counter reconciliation: every submitted join was either admitted or
	// rejected, nothing is still running, and no thread leaked.
	st := getStats(t, ts.URL)
	adm := st.Admission
	if adm.Submitted != 6 {
		t.Errorf("submitted = %d, want 6", adm.Submitted)
	}
	if adm.Admitted+adm.Rejected != adm.Submitted {
		t.Errorf("reconciliation: admitted %d + rejected %d != submitted %d",
			adm.Admitted, adm.Rejected, adm.Submitted)
	}
	if adm.RejectedFull != shed {
		t.Errorf("rejected_full = %d, want %d", adm.RejectedFull, shed)
	}
	if adm.Completed != adm.Admitted {
		t.Errorf("completed %d != admitted %d", adm.Completed, adm.Admitted)
	}
	if adm.InFlight != 0 || adm.Queued != 0 || adm.ThreadsInUse != 0 {
		t.Errorf("leaked admission state: %+v", adm)
	}
	if len(st.Relations) != 4 {
		t.Errorf("/stats lists %d relations, want 4", len(st.Relations))
	}
	var histCount uint64
	for _, as := range st.Algorithms {
		histCount += as.Count
	}
	if histCount != adm.Completed {
		t.Errorf("histogram count %d != completed joins %d", histCount, adm.Completed)
	}
}

func TestServiceConsumers(t *testing.T) {
	srv := New(Config{ThreadBudget: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	register(t, ts.URL, "r", GenerateSpec{N: 1 << 14, Zipf: 0.9, Seed: 3, Stream: 0})
	register(t, ts.URL, "s", GenerateSpec{N: 1 << 14, Zipf: 0.9, Seed: 3, Stream: 1})

	status, raw := doJSON(t, "POST", ts.URL+"/join", JoinRequest{R: "r", S: "s", Consumer: "count"})
	if status != http.StatusOK {
		t.Fatalf("count join: status %d: %s", status, raw)
	}
	var resp JoinResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows == nil {
		t.Fatal("count consumer returned no rows field")
	}
	if *resp.Rows != resp.Matches {
		t.Errorf("streamed row count %d != match summary %d", *resp.Rows, resp.Matches)
	}

	// A pinned GPU sort-merge join feeds the consumer too.
	status, raw = doJSON(t, "POST", ts.URL+"/join", JoinRequest{R: "r", S: "s", Algorithm: "gsmj", Consumer: "count"})
	if status != http.StatusOK {
		t.Fatalf("gsmj count join: status %d: %s", status, raw)
	}
	resp = JoinResponse{}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows == nil || *resp.Rows != resp.Matches || resp.Matches == 0 {
		t.Errorf("gsmj: streamed rows %v, matches %d", resp.Rows, resp.Matches)
	}

	// topk is exact: keys and weights are the closed form's freqR·freqS,
	// ties to the smaller key, at any thread count — so 1 and 2 threads
	// return identical answers. The second k cuts between tied weights.
	r, err := skewjoin.GenerateZipf(1<<14, 0.9, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := skewjoin.GenerateZipf(1<<14, 0.9, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	order := closedFormOrder(r, s)
	tie := 4
	for order[tie-1].Weight != order[tie].Weight {
		tie++
	}
	for _, k := range []int{3, tie} {
		want := order[:k]
		for _, threads := range []int{1, 2} {
			status, raw = doJSON(t, "POST", ts.URL+"/join", JoinRequest{R: "r", S: "s", Consumer: "topk", K: k, Threads: threads})
			if status != http.StatusOK {
				t.Fatalf("topk join: status %d: %s", status, raw)
			}
			resp = JoinResponse{}
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.TopKeys) != len(want) {
				t.Fatalf("k=%d threads=%d: topk returned %d keys, want %d", k, threads, len(resp.TopKeys), len(want))
			}
			for i := range want {
				if resp.TopKeys[i] != want[i] {
					t.Errorf("k=%d threads=%d: topk[%d] = %+v, oracle %+v", k, threads, i, resp.TopKeys[i], want[i])
				}
			}
		}
	}
}

// closedFormOrder ranks every key of the join output by its exact count
// freqR·freqS, heaviest first, ties to the smaller key.
func closedFormOrder(r, s skewjoin.Relation) []KeyWeight {
	fr := map[skewjoin.Key]uint64{}
	for _, t := range r.Tuples {
		fr[t.Key]++
	}
	fs := map[skewjoin.Key]uint64{}
	for _, t := range s.Tuples {
		fs[t.Key]++
	}
	var all []KeyWeight
	for key, a := range fr {
		if b := fs[key]; b > 0 {
			all = append(all, KeyWeight{Key: uint32(key), Weight: a * b})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].Key < all[j].Key
	})
	return all
}

func TestServiceRequestTimeout(t *testing.T) {
	srv := New(Config{ThreadBudget: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	register(t, ts.URL, "r", GenerateSpec{N: 1 << 18, Zipf: 1.0, Seed: 5, Stream: 0})
	register(t, ts.URL, "s", GenerateSpec{N: 1 << 18, Zipf: 1.0, Seed: 5, Stream: 1})

	status, raw := doJSON(t, "POST", ts.URL+"/join", JoinRequest{R: "r", S: "s", TimeoutMS: 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("1ms join: status %d, want 504: %s", status, raw)
	}
	st := getStats(t, ts.URL)
	if st.Admission.ThreadsInUse != 0 || st.Admission.InFlight != 0 {
		t.Errorf("timed-out join leaked admission state: %+v", st.Admission)
	}
}

func TestServiceErrors(t *testing.T) {
	srv := New(Config{ThreadBudget: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	register(t, ts.URL, "r", GenerateSpec{N: 1 << 10, Zipf: 0.5, Seed: 1, Stream: 0})

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"bad body", "POST", "/join", "not json", http.StatusBadRequest},
		{"unknown field", "POST", "/join", map[string]any{"r": "r", "s": "r", "bogus": 1}, http.StatusBadRequest},
		{"duplicate register", "POST", "/relations", RegisterRequest{Name: "r", Generate: &GenerateSpec{N: 10}}, http.StatusConflict},
		{"path and generate", "POST", "/relations", map[string]any{"name": "x", "path": "/tmp/x", "generate": map[string]any{"n": 10}}, http.StatusBadRequest},
		{"path loading disabled", "POST", "/relations", RegisterRequest{Name: "x", Path: "/tmp/x"}, http.StatusForbidden},
		{"neither source", "POST", "/relations", RegisterRequest{Name: "x"}, http.StatusBadRequest},
		{"join unknown relation", "POST", "/join", JoinRequest{R: "nope", S: "r"}, http.StatusNotFound},
		{"join unknown s", "POST", "/join", JoinRequest{R: "r", S: "nope"}, http.StatusNotFound},
		{"unknown algorithm", "POST", "/join", JoinRequest{R: "r", S: "r", Algorithm: "bogus"}, http.StatusBadRequest},
		{"unknown backend", "POST", "/join", JoinRequest{R: "r", S: "r", Backend: "tpu"}, http.StatusBadRequest},
		{"unknown consumer", "POST", "/join", JoinRequest{R: "r", S: "r", Consumer: "sum"}, http.StatusBadRequest},
		{"get missing relation", "GET", "/relations/none", nil, http.StatusNotFound},
		{"drop missing relation", "DELETE", "/relations/none", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		status, raw := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, status, tc.want, raw)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not clean JSON: %q", tc.name, raw)
		}
	}

	// Lifecycle: list, get, drop.
	status, raw := doJSON(t, "GET", ts.URL+"/relations", nil)
	if status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	var infos []RelationInfo
	if err := json.Unmarshal(raw, &infos); err != nil || len(infos) != 1 || infos[0].Name != "r" {
		t.Errorf("list = %s (err %v)", raw, err)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/relations/r", nil); status != http.StatusOK {
		t.Errorf("get relation: status %d", status)
	}
	if status, _ := doJSON(t, "DELETE", ts.URL+"/relations/r", nil); status != http.StatusNoContent {
		t.Errorf("drop relation: status %d", status)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/relations/r", nil); status != http.StatusNotFound {
		t.Errorf("dropped relation still present: status %d", status)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Errorf("healthz: status %d", status)
	}
}
