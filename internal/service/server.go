package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skewjoin"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
	"skewjoin/internal/volcano"
)

// Config tunes the server. The zero value serves with the host's full
// parallelism as the thread budget, a 16-deep admission queue, and a 30s
// default request timeout.
type Config struct {
	// ThreadBudget is the total worker-thread budget shared by all
	// concurrent joins (default: skewjoin.DefaultThreads()).
	ThreadBudget int
	// MaxQueue bounds the admission wait queue; arrivals beyond it are
	// shed with HTTP 429 (default 16; negative = no queue).
	MaxQueue int
	// DefaultTimeout bounds queue wait plus execution for requests that
	// set no timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// Planner configures `auto` dispatch (zero value = CSH's detection
	// parameters).
	Planner skewjoin.PlannerConfig
	// AllowPathLoading permits POST /relations with a filesystem path.
	// The daemon enables it; embedders exposing the server to untrusted
	// clients should leave it off (a path request reads server-local
	// files).
	AllowPathLoading bool
	// Calibration pins the CPU cost-model constants for backend:"split"
	// planning instead of micro-running a fit on the first split request.
	// Embedders with pre-measured host constants (and tests that need a
	// deterministic plan) set it; nil keeps the self-calibration.
	Calibration *skewjoin.Calibration
}

func (c Config) defaults() Config {
	if c.ThreadBudget <= 0 {
		c.ThreadBudget = skewjoin.DefaultThreads()
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	return c
}

// Server is the join service: an http.Handler exposing the relation
// catalog, the admission-controlled join endpoint, and introspection.
//
// Endpoints:
//
//	POST   /relations                register a relation (path, zipf spec, or inline data)
//	GET    /relations                list catalog entries with cached stats
//	GET    /relations/{name}         one catalog entry
//	DELETE /relations/{name}         drop a relation
//	POST   /relations/{name}/extract pull the tuples of a key set (cluster hot-key shipping)
//	POST   /join                     run a join (auto-planned or pinned)
//	GET    /stats                    counters, catalog, latency histograms
//	GET    /healthz                  liveness/readiness probe (503 while draining)
type Server struct {
	cfg     Config
	catalog *Catalog
	adm     *Admission
	rec     *algRecorder
	mux     *http.ServeMux
	started time.Time

	// calOnce fits the CPU cost-model constants on the first
	// backend:"split" request. The constants are host properties, not
	// workload properties, so one calibration serves the server's
	// lifetime.
	calOnce sync.Once
	cal     skewjoin.Calibration

	// draining flips on BeginDrain: new joins and registrations are
	// refused with 503 while in-flight joins run to completion, and
	// healthz reports not-ready so a router stops sending work here.
	draining atomic.Bool
}

// New returns a ready-to-serve join server.
func New(cfg Config) *Server {
	cfg = cfg.defaults()
	s := &Server{
		cfg:     cfg,
		catalog: NewCatalog(),
		adm:     NewAdmission(cfg.ThreadBudget, cfg.MaxQueue),
		rec:     newAlgRecorder(),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.mux.HandleFunc("POST /relations", s.handleRegister)
	s.mux.HandleFunc("GET /relations", s.handleListRelations)
	s.mux.HandleFunc("GET /relations/{name}", s.handleGetRelation)
	s.mux.HandleFunc("DELETE /relations/{name}", s.handleDropRelation)
	s.mux.HandleFunc("POST /relations/{name}/extract", s.handleExtract)
	s.mux.HandleFunc("POST /join", s.handleJoin)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Catalog exposes the relation catalog (the daemon preloads through it).
func (s *Server) Catalog() *Catalog { return s.catalog }

// BeginDrain puts the server into draining mode: healthz turns not-ready
// and new joins/registrations are refused with 503 + Retry-After, while
// requests already admitted keep running. Call it on SIGTERM, then bound
// the wait with DrainJoins before closing the listener, so a router doing
// a rolling restart sees a clean refusal instead of a dropped connection.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainJoins blocks until every in-flight join has finished or ctx is
// done (returning its error). Callers almost always want a deadline on
// ctx: a wedged join must not hold the process open forever.
func (s *Server) DrainJoins(ctx context.Context) error {
	return s.adm.WaitIdle(ctx)
}

// refuseDraining writes the 503 a draining server answers mutating
// requests with; the Retry-After covers a typical rolling-restart.
func refuseDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "2")
	writeError(w, http.StatusServiceUnavailable, "server is draining for shutdown")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// maxBodyBytes bounds request bodies. Most bodies are small JSON
// documents, but inline data registration (the cluster router shipping
// shard fragments) carries a base64 relation, so the bound is sized for
// fragment payloads rather than plain control messages.
const maxBodyBytes = 16 << 20

// maxExcludeKeys bounds the per-request exclude_keys list: the router
// excludes at most its hot-key cap (a handful of keys), so anything large
// is a malformed client, not a workload.
const maxExcludeKeys = 1024

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //skewlint:ignore err-drop -- write failure means the client went away; there is no channel left to report on
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		refuseDraining(w)
		return
	}
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	modes := 0
	for _, set := range []bool{req.Path != "", req.Generate != nil, req.Data != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		writeError(w, http.StatusBadRequest, "set exactly one of path, generate and data")
		return
	}
	var (
		entry *Entry
		err   error
	)
	switch {
	case req.Path != "":
		if !s.cfg.AllowPathLoading {
			writeError(w, http.StatusForbidden, "path loading is disabled on this server")
			return
		}
		entry, err = s.catalog.RegisterFile(req.Name, req.Path)
	case req.Generate != nil:
		entry, err = s.catalog.RegisterZipf(req.Name, *req.Generate)
	default:
		raw, decErr := base64.StdEncoding.DecodeString(req.Data)
		if decErr != nil {
			writeError(w, http.StatusBadRequest, "register: data is not valid base64: %v", decErr)
			return
		}
		entry, err = s.catalog.RegisterData(req.Name, raw)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDuplicate) {
			status = http.StatusConflict
		}
		writeError(w, status, "register: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, entry.Info())
}

func (s *Server) handleListRelations(w http.ResponseWriter, r *http.Request) {
	entries := s.catalog.List()
	infos := make([]RelationInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, e.Info())
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGetRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.catalog.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "relation %q not registered", name)
		return
	}
	writeJSON(w, http.StatusOK, e.Info())
}

func (s *Server) handleDropRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.catalog.Drop(name) {
		writeError(w, http.StatusNotFound, "relation %q not registered", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleExtract returns the named relation's tuples whose key is in the
// request's key set, in relation order, as an inline binary relation. Each
// hot key's tuples live wholly on the key's hash-owner shard, so the
// cluster router assembles a hot key's replica fragment with one extract
// call against that owner.
func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.catalog.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "relation %q not registered", name)
		return
	}
	var req ExtractRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Keys) > maxExcludeKeys {
		writeError(w, http.StatusBadRequest, "extract: %d keys exceeds the %d-key bound", len(req.Keys), maxExcludeKeys)
		return
	}
	want := make(map[relation.Key]struct{}, len(req.Keys))
	for _, k := range req.Keys {
		want[relation.Key(k)] = struct{}{}
	}
	var out relation.Relation
	for _, t := range e.Rel.Tuples {
		if _, hot := want[t.Key]; hot {
			out.Tuples = append(out.Tuples, t)
		}
	}
	var buf bytes.Buffer
	if _, err := out.WriteTo(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "extract: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ExtractResponse{
		Name:   name,
		Tuples: out.Len(),
		Data:   base64.StdEncoding.EncodeToString(buf.Bytes()),
	})
}

// resolveAlgorithm turns a request's algorithm/backend fields into a
// concrete algorithm, consulting the planner on the catalog's cached
// statistics for `auto`.
func (s *Server) resolveAlgorithm(req JoinRequest, rStats skewjoin.RelationStats) (skewjoin.Algorithm, *PlannerInfo, error) {
	name := req.Algorithm
	if name == "" {
		name = "auto"
	}
	if name != "auto" {
		alg := skewjoin.Algorithm(name)
		for _, known := range skewjoin.ExtendedAlgorithms() {
			if alg == known {
				return alg, nil, nil
			}
		}
		return "", nil, fmt.Errorf("unknown algorithm %q", name)
	}
	pcfg := s.cfg.Planner
	pcfg.Limit = req.Limit
	rec := skewjoin.RecommendFromStats(rStats, pcfg)
	info := &PlannerInfo{
		SkewDetected:   rec.SkewDetected,
		TopKeyEstimate: rec.TopKeyEstimate,
		SampleSize:     rec.SampleSize,
		Streaming:      rec.Streaming,
	}
	switch req.Backend {
	case "", "cpu":
		// A limited interactive request the planner predicts will
		// terminate early runs on the streaming symmetric join; full
		// scans keep the blocking recommendation.
		if rec.Streaming {
			return skewjoin.SSJ, info, nil
		}
		return rec.CPU, info, nil
	case "gpu":
		return rec.GPU, info, nil
	case "split":
		// The split executor makes its own per-partition placement from
		// the cost model; the sampling evidence still rides along.
		return skewjoin.Split, info, nil
	default:
		return "", nil, fmt.Errorf("unknown backend %q (want cpu, gpu or split)", req.Backend)
	}
}

// resolveDevice maps the request's device profile name to a simulator
// configuration.
func resolveDevice(name string) (skewjoin.DeviceConfig, error) {
	switch name {
	case "", "a100":
		return skewjoin.DeviceConfig{}, nil
	case "coupled":
		return skewjoin.CoupledDevice(), nil
	default:
		return skewjoin.DeviceConfig{}, fmt.Errorf("unknown device %q (want a100 or coupled)", name)
	}
}

// calibration returns the host's CPU cost-model constants, fitting them
// once with a micro-run over the first split request's inputs.
func (s *Server) calibration(r, sr skewjoin.Relation, threads int) *skewjoin.Calibration {
	s.calOnce.Do(func() {
		if s.cfg.Calibration != nil {
			s.cal = *s.cfg.Calibration
			return
		}
		s.cal = skewjoin.Calibrate(r, sr, threads)
	})
	return &s.cal
}

// consumerSink wires the requested volcano consumer into join options.
type consumerSink struct {
	factory func(worker int) skewjoin.ResultConsumer
	collect func()
	finish  func(resp *JoinResponse)
}

func buildConsumer(req JoinRequest) (*consumerSink, error) {
	switch req.Consumer {
	case "", "summary":
		return nil, nil
	case "count":
		root := volcano.NewCount()
		factory, collect := volcano.Sink(root, func() volcano.Consumer { return volcano.NewCount() })
		return &consumerSink{
			factory: factory,
			collect: collect,
			finish: func(resp *JoinResponse) {
				rows := root.Rows
				resp.Rows = &rows
			},
		}, nil
	case "topk", "groups":
		// Both group the whole output; topk then selects the k heaviest
		// keys from the exact counts.
		one := func(outbuf.Result) uint64 { return 1 }
		root := volcano.NewGroupSum(one)
		factory, collect := volcano.Sink(root, func() volcano.Consumer { return volcano.NewGroupSum(one) })
		finish := func(resp *JoinResponse) {
			keys := make([]relation.Key, 0, len(root.Groups))
			for k := range root.Groups {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				resp.Groups = append(resp.Groups, KeyWeight{Key: uint32(k), Weight: root.Groups[k]})
			}
		}
		if req.Consumer == "topk" {
			k := req.K
			if k <= 0 {
				k = 5
			}
			finish = func(resp *JoinResponse) {
				for _, kw := range volcano.SelectTop(root.Groups, k) {
					resp.TopKeys = append(resp.TopKeys, KeyWeight{Key: uint32(kw.Key), Weight: kw.Weight})
				}
			}
		}
		return &consumerSink{factory: factory, collect: collect, finish: finish}, nil
	default:
		return nil, fmt.Errorf("unknown consumer %q (want summary, count, topk, or groups)", req.Consumer)
	}
}

// excludeTuples returns rel without the tuples whose key is in drop,
// preserving order. The copy is deliberate: catalog relations are shared
// with concurrent joins and must stay immutable.
func excludeTuples(rel skewjoin.Relation, drop map[relation.Key]struct{}) skewjoin.Relation {
	kept := make([]relation.Tuple, 0, len(rel.Tuples))
	for _, t := range rel.Tuples {
		if _, cut := drop[t.Key]; !cut {
			kept = append(kept, t)
		}
	}
	return skewjoin.Relation{Tuples: kept}
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		refuseDraining(w)
		return
	}
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Routing != "" {
		writeError(w, http.StatusBadRequest,
			"routing %q is a cluster-router field; this is a single-node server", req.Routing)
		return
	}
	// ?limit=N is the query-parameter spelling of the body's limit field
	// (the body wins when both are set), so interactive clients can bound
	// a join without editing the request document.
	if req.Limit == 0 {
		if q := r.URL.Query().Get("limit"); q != "" {
			n, convErr := strconv.Atoi(q)
			if convErr != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "bad limit %q: want a non-negative integer", q)
				return
			}
			req.Limit = n
		}
	}
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "limit must be non-negative, got %d", req.Limit)
		return
	}
	rEntry, ok := s.catalog.Get(req.R)
	if !ok {
		writeError(w, http.StatusNotFound, "relation %q not registered", req.R)
		return
	}
	sEntry, ok := s.catalog.Get(req.S)
	if !ok {
		writeError(w, http.StatusNotFound, "relation %q not registered", req.S)
		return
	}
	alg, plannerInfo, err := s.resolveAlgorithm(req, rEntry.Stats)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Limit > 0 && (alg.IsGPU() || alg == skewjoin.Split) {
		writeError(w, http.StatusBadRequest,
			"limit requires a CPU operator; algorithm %q cannot early-terminate (its totals are modelled, not streamed)", alg)
		return
	}
	device, err := resolveDevice(req.Device)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sink, err := buildConsumer(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rRel, sRel := rEntry.Rel, sEntry.Rel
	if len(req.ExcludeKeys) > 0 {
		if len(req.ExcludeKeys) > maxExcludeKeys {
			writeError(w, http.StatusBadRequest, "%d exclude_keys exceeds the %d-key bound", len(req.ExcludeKeys), maxExcludeKeys)
			return
		}
		drop := make(map[relation.Key]struct{}, len(req.ExcludeKeys))
		for _, k := range req.ExcludeKeys {
			drop[relation.Key(k)] = struct{}{}
		}
		rRel = excludeTuples(rRel, drop)
		sRel = excludeTuples(sRel, drop)
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	// The deadline covers queue wait plus execution, and the context also
	// dies with the client connection, so an abandoned request frees its
	// workers either way.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	weight := s.adm.ClampWeight(req.Threads)
	queuedAt := time.Now()
	release, err := s.adm.Acquire(ctx, weight)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusGatewayTimeout, "timed out after %v waiting for admission", timeout)
		return
	}
	defer release()
	wait := time.Since(queuedAt)

	opts := &skewjoin.Options{Threads: weight, Context: ctx, Device: device, Limit: req.Limit}
	// GPU simulation parallelism spends host workers too, so clamp it to
	// the weight this request was admitted with.
	if hp := req.HostParallelism; hp > 0 {
		if hp > weight {
			hp = weight
		}
		opts.Device.HostParallelism = hp
	}
	if alg == skewjoin.Split {
		opts.Calibration = s.calibration(rRel, sRel, weight)
		opts.Fragments = req.Fragments
	}
	if sink != nil {
		opts.Consumer = sink.factory
	}
	joinStart := time.Now()
	res, err := skewjoin.Join(alg, rRel, sRel, opts)
	joinDur := time.Since(joinStart)
	if err != nil {
		s.rec.observeError(string(alg))
		if ctx.Err() != nil {
			writeError(w, http.StatusGatewayTimeout, "join cancelled after %v: %v", joinDur.Round(time.Millisecond), err)
			return
		}
		writeError(w, http.StatusInternalServerError, "join failed: %v", err)
		return
	}
	s.rec.observe(string(alg), joinDur, res.JoinPhase, res.Stream)

	resp := JoinResponse{
		Algorithm: string(alg),
		Auto:      plannerInfo != nil,
		Planner:   plannerInfo,
		Matches:   res.Matches,
		Checksum:  res.Checksum,
		Modelled:  res.Modelled,
		WaitMS:    float64(wait) / float64(time.Millisecond),
		JoinMS:    float64(joinDur) / float64(time.Millisecond),
	}
	for _, p := range res.Phases {
		resp.Phases = append(resp.Phases, PhaseInfo{Name: p.Name, MS: float64(p.Duration) / float64(time.Millisecond)})
	}
	if jp := res.JoinPhase; jp != nil {
		resp.JoinPhase = &JoinPhaseInfo{
			Tasks:       jp.Tasks,
			SplitTasks:  jp.SplitTasks,
			MaxChain:    jp.MaxChain,
			ProbeVisits: jp.ProbeVisits,
			BuildMS:     float64(jp.BuildNs) / 1e6,
			ProbeMS:     float64(jp.ProbeNs) / 1e6,
		}
	}
	if st := res.Stream; st != nil {
		resp.Stream = &StreamInfo{
			FirstResultMS: float64(st.FirstResultNs) / 1e6,
			LimitMS:       float64(st.LimitNs) / 1e6,
			LimitHit:      st.LimitHit,
			Staged:        st.Staged,
			Chunks:        st.Chunks,
		}
	}
	if st := res.Split; st != nil {
		s.rec.observeSplit(st)
		info := &SplitInfo{
			CPUJoinMS:     float64(st.CPUJoinNs) / 1e6,
			GPUJoinMS:     float64(st.GPUJoinNs) / 1e6,
			GPUTransferMS: float64(st.GPUTransferNs) / 1e6,
			MakespanMS:    float64(st.MakespanNs) / 1e6,
			Imbalance:     st.Imbalance,
		}
		if plan := st.Plan; plan != nil {
			info.Split = plan.Split
			if !plan.Split {
				info.Degenerate = string(plan.Degenerate)
				info.DegenerateReason = plan.DegenerateReason
			}
			info.CPUParts = len(plan.CPUParts)
			info.GPUParts = len(plan.GPUParts)
			if plan.Fragmented() {
				info.Fragmented = true
				info.FragmentedPart = plan.FragmentedPart
				info.CPUFragments = st.CPUFragments
				info.GPUFragments = st.GPUFragments
			}
			info.PredictedMakespanMS = float64(plan.PredictedMakespanNs) / 1e6
		}
		resp.Split = info
	}
	if sink != nil {
		sink.collect()
		sink.finish(&resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entries := s.catalog.List()
	infos := make([]RelationInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, e.Info())
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Relations:  infos,
		Admission:  s.adm.Snapshot(),
		Algorithms: s.rec.snapshot(),
		Split:      s.rec.splitSnapshot(),
		UptimeMS:   float64(time.Since(s.started)) / float64(time.Millisecond),
	})
}
