package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skewjoin"
	"skewjoin/internal/relation"
	"skewjoin/internal/service"
	"skewjoin/internal/volcano"
)

// Config tunes the router. Zero values get sensible defaults; only
// ShardURLs is required.
type Config struct {
	// ShardURLs are the shards' base URLs in ring order. The ring layout
	// is a pure function of the shard count, so a restarted router with
	// the same list reconstructs the same catalog ownership.
	ShardURLs []string
	// VNodes is the consistent-hash points per shard (default
	// DefaultVNodes).
	VNodes int
	// HotFactor scales the fragment-and-replicate threshold: a key is hot
	// when its estimated output reaches HotFactor times the fair per-shard
	// share (default 1.5).
	HotFactor float64
	// MaxHotKeys caps the carved-out key set per join (default 16, the
	// catalog's TopKeys depth).
	MaxHotKeys int
	// ShardTimeout bounds each shard call attempt (default 30s).
	ShardTimeout time.Duration
	// Retries is the per-call retry bound on transient shard failures
	// (default 2; negative disables retries).
	Retries int
	// RetryBackoff is the base back-off between retries, grown linearly
	// and overridden upward by a shard's Retry-After (default 100ms).
	RetryBackoff time.Duration
	// ShardBudget and ShardQueue configure the router-side per-shard
	// admission: at most ShardBudget fleet joins run against a shard at
	// once, ShardQueue more may wait, and the rest are shed with 429
	// (defaults 4 and 8; ShardQueue < 0 means no queue).
	ShardBudget int
	ShardQueue  int
	// DefaultTimeout bounds a whole fleet join when the request sets no
	// timeout_ms (default 60s).
	DefaultTimeout time.Duration
	// HTTPClient overrides the transport (tests inject httptest clients).
	HTTPClient *http.Client
	// SerialJoins runs the join fan-out one shard at a time instead of
	// concurrently. This is a measurement mode for time-shared hosts
	// (skewbench -exp shard): when every shard pins the same core,
	// concurrent calls' wall-clock measures the scheduler's interleaving,
	// while serialized calls make each shard's reported execution time an
	// honest measure of its share of the work — the makespan a fleet with
	// a core per shard would see is then the slowest shard's time. Not for
	// production use: it forfeits fleet parallelism.
	SerialJoins bool
}

func (c Config) defaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.HotFactor <= 0 {
		c.HotFactor = 1.5
	}
	if c.MaxHotKeys <= 0 {
		c.MaxHotKeys = 16
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 30 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.ShardBudget <= 0 {
		c.ShardBudget = 4
	}
	if c.ShardQueue == 0 {
		c.ShardQueue = 8
	}
	if c.ShardQueue < 0 {
		c.ShardQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	return c
}

// shard is the router's handle on one backend: its client, the router-side
// admission gate, and the latency average behind Retry-After estimates.
type shard struct {
	idx    int
	url    string
	client *shardClient
	adm    *service.Admission

	mu     sync.Mutex
	ewmaMS float64 //skewlint:guarded-by mu
}

func (sh *shard) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	sh.mu.Lock()
	if sh.ewmaMS == 0 {
		sh.ewmaMS = ms
	} else {
		sh.ewmaMS = 0.8*sh.ewmaMS + 0.2*ms
	}
	sh.mu.Unlock()
}

func (sh *shard) ewma() float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ewmaMS
}

// relEntry is the router's catalog record: the relation's wire info (with
// the cached TopKeys the hot-key rule reads) plus its per-shard placement.
type relEntry struct {
	info     service.RelationInfo
	perShard []int // tuples per shard
}

// fragSet records one shipped fragment generation for a join pair: the
// replicated build fragment's name (registered on every shard) and the
// per-shard split probe fragment names ("" where the split was empty and
// the shard runs no hot call).
type fragSet struct {
	r, s string
	tag  string
	rep  string
	spl  []string
}

func fragKey(r, s, tag string) string { return r + "\x00" + s + "\x00" + tag }

// Router is the cluster front door: an http.Handler speaking the
// single-node service API (plus /cluster/stats), backed by N shards.
type Router struct {
	cfg     Config
	ring    *Ring
	shards  []*shard
	mux     *http.ServeMux
	started time.Time

	mu    sync.Mutex
	rels  map[string]*relEntry //skewlint:guarded-by mu
	frags map[string]*fragSet  //skewlint:guarded-by mu

	joins atomic.Uint64
	shed  atomic.Uint64
}

// NewRouter builds a router over the configured shards.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.defaults()
	if len(cfg.ShardURLs) == 0 {
		return nil, errors.New("cluster: no shard URLs configured")
	}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(len(cfg.ShardURLs), cfg.VNodes),
		mux:     http.NewServeMux(),
		started: time.Now(),
		rels:    make(map[string]*relEntry),
		frags:   make(map[string]*fragSet),
	}
	for i, u := range cfg.ShardURLs {
		rt.shards = append(rt.shards, &shard{
			idx: i,
			url: u,
			client: &shardClient{
				shard:   i,
				base:    u,
				hc:      cfg.HTTPClient,
				timeout: cfg.ShardTimeout,
				retries: cfg.Retries,
				backoff: cfg.RetryBackoff,
			},
			adm: service.NewAdmission(cfg.ShardBudget, cfg.ShardQueue),
		})
	}
	rt.mux.HandleFunc("POST /relations", rt.handleRegister)
	rt.mux.HandleFunc("GET /relations", rt.handleListRelations)
	rt.mux.HandleFunc("GET /relations/{name}", rt.handleGetRelation)
	rt.mux.HandleFunc("DELETE /relations/{name}", rt.handleDropRelation)
	rt.mux.HandleFunc("POST /join", rt.handleJoin)
	rt.mux.HandleFunc("GET /cluster/stats", rt.handleClusterStats)
	rt.mux.HandleFunc("GET /stats", rt.handleClusterStats)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

const maxRouterBody = 64 << 20 // inline data registration carries relations

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //skewlint:ignore err-drop -- write failure means the client went away; there is no channel left to report on
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, service.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRouterBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// fanOut runs f once per shard on its own goroutine and returns the first
// (lowest-shard) error. It always waits for every shard, so callers may
// touch their per-shard slots as soon as it returns.
func fanOut(ctx context.Context, shards []*shard, f func(ctx context.Context, sh *shard) error) error {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			errs[sh.idx] = f(ctx, sh)
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOutSeq is fanOut without the concurrency: shards run one at a time
// in ring order, stopping at the first error (Config.SerialJoins).
func fanOutSeq(ctx context.Context, shards []*shard, f func(ctx context.Context, sh *shard) error) error {
	for _, sh := range shards {
		if err := f(ctx, sh); err != nil {
			return err
		}
	}
	return nil
}

// shardFailure maps a failed fan-out to the client-facing status: shard
// 4xx responses pass through (the request itself was bad), everything else
// is a gateway failure — 504 when the fleet deadline expired, 502 for a
// shard that stayed broken through the retry budget.
func shardFailure(w http.ResponseWriter, ctx context.Context, err error) {
	var se *ShardError
	if errors.As(err, &se) {
		switch se.Status {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
			writeError(w, se.Status, "%v", err)
			return
		}
	}
	if ctx.Err() != nil {
		writeError(w, http.StatusGatewayTimeout, "cluster call timed out: %v", err)
		return
	}
	writeError(w, http.StatusBadGateway, "%v", err)
}

func encodeRelation(rel relation.Relation) (string, error) {
	var buf bytes.Buffer
	if _, err := rel.WriteTo(&buf); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

func decodeRelation(data string) (relation.Relation, error) {
	raw, err := base64.StdEncoding.DecodeString(data)
	if err != nil {
		return relation.Relation{}, err
	}
	var rel relation.Relation
	if _, err := rel.ReadFrom(bytes.NewReader(raw)); err != nil {
		return relation.Relation{}, err
	}
	return rel, nil
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req service.RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The router materialises the relation locally — exactly what a single
	// node would serve — then carves it across the ring, so the fleet's
	// catalog is byte-equivalent to a single node's.
	var (
		rel    relation.Relation
		source string
	)
	switch {
	case req.Generate != nil && req.Path == "" && req.Data == "":
		generated, err := skewjoin.GenerateZipf(req.Generate.N, req.Generate.Zipf, req.Generate.Seed, req.Generate.Stream)
		if err != nil {
			writeError(w, http.StatusBadRequest, "generate: %v", err)
			return
		}
		rel = generated
		source = fmt.Sprintf("zipf(n=%d,theta=%g,seed=%d,stream=%d)",
			req.Generate.N, req.Generate.Zipf, req.Generate.Seed, req.Generate.Stream)
	case req.Data != "" && req.Path == "" && req.Generate == nil:
		decoded, err := decodeRelation(req.Data)
		if err != nil {
			writeError(w, http.StatusBadRequest, "data: %v", err)
			return
		}
		rel = decoded
		source = "data"
	default:
		writeError(w, http.StatusBadRequest, "set exactly one of generate and data (the router does not load shard-local paths)")
		return
	}

	stats := relation.ComputeStats(rel)
	parts := rt.ring.Partition(rel)
	entry := &relEntry{
		info:     infoOf(req.Name, source, rel, stats),
		perShard: make([]int, len(parts)),
	}
	for i, p := range parts {
		entry.perShard[i] = p.Len()
	}

	// Reserve the name before shipping so concurrent registrations of the
	// same name fail fast instead of colliding shard-side.
	rt.mu.Lock()
	if _, dup := rt.rels[req.Name]; dup {
		rt.mu.Unlock()
		writeError(w, http.StatusConflict, "relation %q already registered", req.Name)
		return
	}
	rt.rels[req.Name] = entry
	rt.mu.Unlock()

	datas := make([]string, len(parts))
	for i, p := range parts {
		d, err := encodeRelation(p)
		if err != nil {
			rt.forget(req.Name)
			writeError(w, http.StatusInternalServerError, "encode fragment: %v", err)
			return
		}
		datas[i] = d
	}
	err := fanOut(r.Context(), rt.shards, func(ctx context.Context, sh *shard) error {
		return sh.client.do(ctx, "POST", "/relations",
			service.RegisterRequest{Name: req.Name, Data: datas[sh.idx]}, nil)
	})
	if err != nil {
		// Roll back the shards that did accept so a retry starts clean.
		rt.forget(req.Name)
		rt.deleteEverywhere(req.Name)
		shardFailure(w, r.Context(), err)
		return
	}
	writeJSON(w, http.StatusCreated, entry.info)
}

func (rt *Router) forget(name string) {
	rt.mu.Lock()
	delete(rt.rels, name)
	rt.mu.Unlock()
}

// deleteEverywhere best-effort drops name on every shard (404s and
// transport errors are ignored: the shard either never had it or is gone).
func (rt *Router) deleteEverywhere(name string) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ShardTimeout)
	defer cancel()
	fanOut(ctx, rt.shards, func(ctx context.Context, sh *shard) error { //skewlint:ignore err-drop -- best-effort rollback; the closure always returns nil
		sh.client.do(ctx, "DELETE", "/relations/"+name, nil, nil) //skewlint:ignore err-drop -- the shard either never had the relation or is gone; both are fine
		return nil
	})
}

func infoOf(name, source string, rel relation.Relation, st relation.Stats) service.RelationInfo {
	info := service.RelationInfo{
		Name:         name,
		Source:       source,
		Tuples:       st.Tuples,
		Bytes:        rel.Bytes(),
		DistinctKeys: st.DistinctKeys,
		MaxKey:       uint32(st.MaxKey),
		MaxKeyFreq:   st.MaxKeyFreq,
		RegisteredAt: time.Now().UTC().Format(time.RFC3339),
	}
	for _, kf := range st.TopKeys {
		info.TopKeys = append(info.TopKeys, service.KeyFreqInfo{Key: uint32(kf.Key), Freq: kf.Freq})
	}
	return info
}

func (rt *Router) handleListRelations(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	infos := make([]service.RelationInfo, 0, len(rt.rels))
	for _, e := range rt.rels {
		infos = append(infos, e.info)
	}
	rt.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

func (rt *Router) handleGetRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.mu.Lock()
	e, ok := rt.rels[name]
	rt.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "relation %q not registered", name)
		return
	}
	writeJSON(w, http.StatusOK, e.info)
}

func (rt *Router) handleDropRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.mu.Lock()
	_, ok := rt.rels[name]
	if ok {
		delete(rt.rels, name)
	}
	// Collect and forget the fragment generations shipped for this
	// relation; their shard-side registrations are dropped below.
	var stale []*fragSet
	for key, fs := range rt.frags {
		if fs.r == name || fs.s == name {
			stale = append(stale, fs)
			delete(rt.frags, key)
		}
	}
	rt.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "relation %q not registered", name)
		return
	}
	rt.deleteEverywhere(name)
	for _, fs := range stale {
		rt.deleteEverywhere(fs.rep)
		for _, spl := range fs.spl {
			if spl != "" {
				rt.deleteEverywhere(spl)
			}
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Ready only when every shard is: the smoke scripts and rolling
	// restarts key off this.
	err := fanOut(r.Context(), rt.shards, func(ctx context.Context, sh *shard) error {
		return sh.client.do(ctx, "GET", "/healthz", nil, nil)
	})
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: %v\n", err)
		return
	}
	fmt.Fprintf(w, "ok (%d shards)\n", len(rt.shards))
}

// admitAll takes one slot on every shard's router-side admission gate, in
// ring order (a fixed order means concurrent fleet joins queue FIFO
// instead of deadlocking on partial grants). The returned release frees
// all of them.
//
//skewlint:acquire-order ring -- gates are acquired by ranging rt.shards, which is in ring order
func (rt *Router) admitAll(ctx context.Context) (func(), error) {
	releases := make([]func(), 0, len(rt.shards))
	releaseAll := func() {
		for _, rel := range releases {
			rel()
		}
	}
	for _, sh := range rt.shards {
		rel, err := sh.adm.Acquire(ctx, 1)
		if err != nil {
			releaseAll()
			return nil, err
		}
		releases = append(releases, rel)
	}
	return releaseAll, nil
}

// retryAfterSeconds estimates when shed load should come back: the worst
// shard's queue depth plus one, times its average join latency, divided by
// its concurrency budget — i.e. roughly when the backlog will have
// drained — clamped to [1, 60].
func (rt *Router) retryAfterSeconds() int {
	worst := 1
	for _, sh := range rt.shards {
		st := sh.adm.Snapshot()
		ewma := sh.ewma()
		if ewma <= 0 {
			ewma = 100 // no sample yet: assume a fast join
		}
		secs := int(math.Ceil(float64(st.Queued+1) * ewma / 1000 / float64(rt.cfg.ShardBudget)))
		if secs > worst {
			worst = secs
		}
	}
	if worst > 60 {
		worst = 60
	}
	return worst
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req service.JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	switch req.Routing {
	case "", "auto", "hash", "frag":
	default:
		writeError(w, http.StatusBadRequest, "unknown routing %q (want auto, hash or frag)", req.Routing)
		return
	}
	switch req.Consumer {
	case "", "summary", "count", "topk", "groups":
	default:
		writeError(w, http.StatusBadRequest, "unknown consumer %q (want summary, count, topk, or groups)", req.Consumer)
		return
	}
	rt.mu.Lock()
	re, okR := rt.rels[req.R]
	se, okS := rt.rels[req.S]
	rt.mu.Unlock()
	if !okR {
		writeError(w, http.StatusNotFound, "relation %q not registered", req.R)
		return
	}
	if !okS {
		writeError(w, http.StatusNotFound, "relation %q not registered", req.S)
		return
	}

	var hot hotSet
	if req.Routing != "hash" {
		hot = hotKeys(re.info, se.info, len(rt.shards), rt.cfg.HotFactor, rt.cfg.MaxHotKeys)
	}
	policy := "hash"
	if !hot.empty() {
		policy = "frag"
	}

	timeout := rt.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	queuedAt := time.Now()
	release, err := rt.admitAll(ctx)
	if err != nil {
		if errors.Is(err, service.ErrOverloaded) {
			rt.shed.Add(1)
			w.Header().Set("Retry-After", fmt.Sprintf("%d", rt.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, "cluster overloaded: %v", err)
			return
		}
		writeError(w, http.StatusGatewayTimeout, "timed out after %v waiting for cluster admission", timeout)
		return
	}
	defer release()
	wait := time.Since(queuedAt)

	var fs *fragSet
	if policy == "frag" {
		fs, err = rt.ensureFragments(ctx, req.R, req.S, hot)
		if err != nil {
			shardFailure(w, ctx, err)
			return
		}
	}

	// Every cold call of a topk join selects the same k (see Merge).
	if req.Consumer == "topk" && req.K <= 0 {
		req.K = 5
	}

	type shardOut struct {
		partials []Partial
		info     ShardJoinInfo
		alg      string
		auto     bool
		modelled bool
	}
	outs := make([]shardOut, len(rt.shards))
	spawn := fanOut
	if rt.cfg.SerialJoins {
		spawn = fanOutSeq
	}
	err = spawn(ctx, rt.shards, func(ctx context.Context, sh *shard) error {
		out := &outs[sh.idx]
		out.info.Shard = sh.idx
		for _, call := range rt.callsFor(sh, req, hot, fs) {
			var jr service.JoinResponse
			start := time.Now()
			if err := sh.client.do(ctx, "POST", "/join", call, &jr); err != nil {
				return err
			}
			sh.observe(time.Since(start))
			out.partials = append(out.partials, PartialOf(jr))
			out.info.Calls++
			out.info.Matches += jr.Matches
			out.info.JoinMS += jr.JoinMS
			if jp := jr.JoinPhase; jp != nil {
				out.info.BusyMS += jp.BuildMS + jp.ProbeMS
			}
			if out.alg == "" {
				out.alg = jr.Algorithm
				out.auto = jr.Auto
			}
			out.modelled = out.modelled || jr.Modelled
		}
		return nil
	})
	if err != nil {
		shardFailure(w, ctx, err)
		return
	}

	var parts []Partial
	infos := make([]ShardJoinInfo, 0, len(outs))
	alg, modelled, auto := "", false, false
	makespanMS := 0.0
	for i, out := range outs {
		parts = append(parts, out.partials...)
		infos = append(infos, out.info)
		if i == 0 {
			alg, auto = out.alg, out.auto
		} else if out.alg != alg {
			alg = "mixed"
		}
		modelled = modelled || out.modelled
		if out.info.JoinMS > makespanMS {
			makespanMS = out.info.JoinMS
		}
	}
	merged := Merge(parts)

	resp := JoinResponse{
		JoinResponse: service.JoinResponse{
			Algorithm: alg,
			Auto:      auto,
			Matches:   merged.Matches,
			Checksum:  merged.Checksum,
			Modelled:  modelled,
			WaitMS:    float64(wait) / float64(time.Millisecond),
			JoinMS:    makespanMS,
		},
		Cluster: &JoinInfo{Policy: policy, HotKeys: hot.keys, Shards: infos},
	}
	switch req.Consumer {
	case "count":
		resp.Rows = merged.Rows
	case "groups":
		resp.Groups = sortedGroups(merged.Counts)
	case "topk":
		for _, kw := range volcano.SelectTop(merged.Counts, req.K) {
			resp.TopKeys = append(resp.TopKeys, service.KeyWeight{Key: uint32(kw.Key), Weight: kw.Weight})
		}
	}
	rt.joins.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// callsFor builds the shard's per-join request list: the cold hash-
// fragment join (hot keys excluded under frag), plus the replicated-build
// × split-probe hot call where the shard's split fragment is non-empty.
// A topk join asks the cold call for its exact local top-k and the hot
// call for its groups, which hold at most the hot keys: Merge explains
// why these candidates contain the global top-k.
func (rt *Router) callsFor(sh *shard, req service.JoinRequest, hot hotSet, fs *fragSet) []service.JoinRequest {
	base := service.JoinRequest{
		Algorithm: req.Algorithm,
		Backend:   req.Backend,
		Device:    req.Device,
		Threads:   req.Threads,
		Consumer:  req.Consumer,
		K:         req.K,
	}
	cold := base
	cold.R, cold.S = req.R, req.S
	cold.ExcludeKeys = hot.keys
	calls := []service.JoinRequest{cold}
	if fs != nil && fs.spl[sh.idx] != "" {
		hotCall := base
		hotCall.R, hotCall.S = fs.rep, fs.spl[sh.idx]
		if hotCall.Consumer == "topk" {
			hotCall.Consumer = "groups"
		}
		calls = append(calls, hotCall)
	}
	return calls
}

// ensureFragments ships the hot-key fragment generation for (rName, sName,
// hot.tag) if this router has not shipped it yet: the build side's hot
// tuples are pulled off their owner shards and broadcast everywhere under
// one replicated name; the probe side's hot tuples are split round-robin
// so every shard gets an even slice of the heavy key's probe work.
func (rt *Router) ensureFragments(ctx context.Context, rName, sName string, hot hotSet) (*fragSet, error) {
	key := fragKey(rName, sName, hot.tag)
	rt.mu.Lock()
	if fs, ok := rt.frags[key]; ok {
		rt.mu.Unlock()
		return fs, nil
	}
	rt.mu.Unlock()

	relR, err := rt.extractHot(ctx, rName, hot)
	if err != nil {
		return nil, err
	}
	relS, err := rt.extractHot(ctx, sName, hot)
	if err != nil {
		return nil, err
	}

	n := len(rt.shards)
	fs := &fragSet{
		r:   rName,
		s:   sName,
		tag: hot.tag,
		rep: rName + "@rep." + hot.tag,
		spl: make([]string, n),
	}
	splits := make([]relation.Relation, n)
	for i, t := range relS.Tuples {
		splits[i%n].Tuples = append(splits[i%n].Tuples, t)
	}
	repData, err := encodeRelation(relR)
	if err != nil {
		return nil, err
	}
	splData := make([]string, n)
	for i := range splits {
		if splits[i].Len() == 0 {
			continue // shard i runs no hot call for this generation
		}
		fs.spl[i] = sName + "@spl." + hot.tag
		if splData[i], err = encodeRelation(splits[i]); err != nil {
			return nil, err
		}
	}

	err = fanOut(ctx, rt.shards, func(ctx context.Context, sh *shard) error {
		if err := rt.registerFragment(ctx, sh, fs.rep, repData); err != nil {
			return err
		}
		if fs.spl[sh.idx] == "" {
			return nil
		}
		return rt.registerFragment(ctx, sh, fs.spl[sh.idx], splData[sh.idx])
	})
	if err != nil {
		return nil, err
	}

	rt.mu.Lock()
	if prev, ok := rt.frags[key]; ok {
		// A concurrent join shipped the same generation; both shipped
		// identical bytes (the tag pins the content), so either record is
		// right.
		fs = prev
	} else {
		rt.frags[key] = fs
	}
	rt.mu.Unlock()
	return fs, nil
}

// registerFragment registers one fragment, treating 409 as success: a
// fragment name embeds the hot-set tag, so a duplicate holds exactly the
// bytes this shipment would have written (e.g. a concurrent join or a
// previous partially-failed shipment got there first).
func (rt *Router) registerFragment(ctx context.Context, sh *shard, name, data string) error {
	err := sh.client.do(ctx, "POST", "/relations", service.RegisterRequest{Name: name, Data: data}, nil)
	var se *ShardError
	if errors.As(err, &se) && se.Status == http.StatusConflict {
		return nil
	}
	return err
}

// extractHot pulls the hot keys' tuples for one relation off their owner
// shards and concatenates them in shard order — deterministic because each
// key's tuples live wholly on its one owner.
func (rt *Router) extractHot(ctx context.Context, name string, hot hotSet) (relation.Relation, error) {
	n := len(rt.shards)
	byOwner := make([][]uint32, n)
	for _, k := range hot.keys {
		o := rt.ring.Owner(k)
		byOwner[o] = append(byOwner[o], k)
	}
	frags := make([]relation.Relation, n)
	err := fanOut(ctx, rt.shards, func(ctx context.Context, sh *shard) error {
		keys := byOwner[sh.idx]
		if len(keys) == 0 {
			return nil
		}
		var er service.ExtractResponse
		if err := sh.client.do(ctx, "POST", "/relations/"+name+"/extract",
			service.ExtractRequest{Keys: keys}, &er); err != nil {
			return err
		}
		rel, err := decodeRelation(er.Data)
		if err != nil {
			return &ShardError{Shard: sh.idx, URL: sh.url, Err: fmt.Errorf("extract %q: %w", name, err)}
		}
		frags[sh.idx] = rel
		return nil
	})
	if err != nil {
		return relation.Relation{}, err
	}
	var out relation.Relation
	for _, f := range frags {
		out.Tuples = append(out.Tuples, f.Tuples...)
	}
	return out, nil
}

func (rt *Router) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	stats := make([]ShardStats, len(rt.shards))
	fanOut(r.Context(), rt.shards, func(ctx context.Context, sh *shard) error { //skewlint:ignore err-drop -- per-shard failures land in ShardStats.Error; the closure always returns nil
		st := ShardStats{
			Shard:      sh.idx,
			URL:        sh.url,
			EwmaJoinMS: sh.ewma(),
			Admission:  sh.adm.Snapshot(),
		}
		var shardView service.StatsResponse
		if err := sh.client.do(ctx, "GET", "/stats", nil, &shardView); err != nil {
			st.Error = err.Error()
		} else {
			st.Healthy = true
			st.Stats = &shardView
		}
		stats[sh.idx] = st
		return nil
	})
	rt.mu.Lock()
	infos := make([]service.RelationInfo, 0, len(rt.rels))
	for _, e := range rt.rels {
		infos = append(infos, e.info)
	}
	rt.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, StatsResponse{
		Shards:    stats,
		Relations: infos,
		Joins:     rt.joins.Load(),
		Shed:      rt.shed.Load(),
		UptimeMS:  float64(time.Since(rt.started)) / float64(time.Millisecond),
	})
}
