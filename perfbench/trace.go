package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"skewjoin"
	"skewjoin/internal/cbase"
	"skewjoin/internal/exec"
	"skewjoin/internal/joinphase"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
	"skewjoin/internal/service"
	"skewjoin/internal/volcano"
)

// reconcileTolerance is how far the sum of the replayed layers may stray
// from the server-side join_ms, as a share of join_ms (medians over the
// traced requests). The server times join_ms around skewjoin.Join alone,
// so the layers summed are the ones inside it: the phases the replayed
// operator reports, or for uniform the Cbase decomposition, radix.Partition
// on both inputs and then joinphase.Run. The planner runs before join_ms
// starts and a consumer's merge after it ends; they count against the
// round trip, as service.overhead_ms does.
const reconcileTolerance = 0.25

// traceDir is where the spans are written, relative to the working
// directory (the checkout root when run through run.sh).
const traceDir = ".bench_build"

// span is one timed section of a traced request. Times are nanoseconds
// since the run's epoch; Parent 0 marks a root.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Derived marks a span laid out from operator-reported phase
	// durations rather than timed around a call.
	Derived bool `json:"derived,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span //skewlint:guarded-by mu
}

func (t *tracer) add(name string, req, parent int, start, end time.Time, derived bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, Request: req, ID: id, Parent: parent, Derived: derived,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// finish closes a span opened with add(name, req, parent, start, start).
func (t *tracer) finish(id int) {
	t.mu.Lock()
	t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// selfTimes returns each span name's self time in one request: its span's
// duration minus the part of that interval its children cover.
func (t *tracer) selfTimes(req int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Request == req && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Request != req {
			continue
		}
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, reach := int64(0), s.StartNs
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// consumeTimer wraps a consumer factory to time every batch inside the
// upper operator. The factory is called sequentially and each worker's
// callback runs on that worker alone, so the per-worker slots need no lock;
// Join returns after every worker has finished.
type consumeTimer struct {
	slots []*consumeSlot
}

type consumeSlot struct {
	ns      int64
	results uint64
}

func (c *consumeTimer) wrap(factory func(int) skewjoin.ResultConsumer) func(int) skewjoin.ResultConsumer {
	return func(worker int) skewjoin.ResultConsumer {
		inner, slot := factory(worker), &consumeSlot{}
		c.slots = append(c.slots, slot)
		return func(batch []skewjoin.JoinResult) {
			start := time.Now()
			inner(batch)
			slot.ns += time.Since(start).Nanoseconds()
			slot.results += uint64(len(batch))
		}
	}
}

func (c *consumeTimer) totals() (time.Duration, uint64) {
	var ns int64
	var n uint64
	for _, s := range c.slots {
		ns += s.ns
		n += s.results
	}
	return time.Duration(ns), n
}

// call is one join a server runs for a request: the front service's only
// join, or one of a shard's calls.
type call struct {
	r, s    *service.Entry
	exclude []uint32
}

// replayer re-runs a request's joins through the layers' public functions.
type replayer struct {
	w       workload
	tr      *tracer
	threads int
	cal     *skewjoin.Calibration
}

// layers accumulates one replayed request's per-layer numbers.
type layers struct {
	mu sync.Mutex
	v  map[string]float64 //skewlint:guarded-by mu
}

func (l *layers) add(name string, x float64) {
	l.mu.Lock()
	l.v[name] += x
	l.mu.Unlock()
}

func (l *layers) max(name string, x float64) {
	l.mu.Lock()
	l.v[name] = math.Max(l.v[name], x)
	l.mu.Unlock()
}

func (l *layers) get(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.v[name]
}

func ms(d time.Duration) float64 { return float64(d) * msPerNs }

// resolve is the service's `auto` dispatch on the catalog statistics.
func (p *replayer) resolve(st skewjoin.RelationStats) skewjoin.Algorithm {
	rec := skewjoin.RecommendFromStats(st, skewjoin.PlannerConfig{Limit: p.w.limit})
	switch {
	case p.w.req.Backend == "split":
		return skewjoin.Split
	case rec.Streaming:
		return skewjoin.SSJ
	}
	return rec.CPU
}

// plannerTime times RecommendFromStats, averaged over enough calls to
// resolve a microsecond-scale function.
func (p *replayer) plannerTime(req, parent int, st skewjoin.RelationStats) time.Duration {
	const calls = 200
	cfg := skewjoin.PlannerConfig{Limit: p.w.limit}
	start := time.Now()
	for i := 0; i < calls; i++ {
		skewjoin.RecommendFromStats(st, cfg)
	}
	end := time.Now()
	p.tr.add("planner.recommend", req, parent, start, start.Add(end.Sub(start)/calls), false)
	return end.Sub(start) / calls
}

// runCall replays one join with the request's options and returns the sum
// of its layers: the wall-clock phases the operator reports, laid end to
// end from the join's start as spans. Two operators leave part of their
// wall time out of their phases, and that remainder is a layer of its own:
// SSJ's set-up before it streams, and the split's two legs, whose join
// phase is modelled time. live is the split plan the server ran, which
// the replay must repeat.
func (p *replayer) runCall(ctx context.Context, req, parent int, c call, live *service.SplitInfo, l *layers) (time.Duration, error) {
	rRel, sRel := c.r.Rel, c.s.Rel
	if len(c.exclude) > 0 {
		drop := map[relation.Key]bool{}
		for _, k := range c.exclude {
			drop[relation.Key(k)] = true
		}
		rRel, sRel = without(rRel, drop), without(sRel, drop)
	}
	alg := p.resolve(c.r.Stats)
	opts := &skewjoin.Options{Threads: p.threads, Context: ctx, Limit: p.w.limit}
	if p.w.req.Device == "coupled" {
		opts.Device = skewjoin.CoupledDevice()
	}
	if alg == skewjoin.Split {
		opts.Calibration = p.cal
	}
	var timer consumeTimer
	var collect func()
	if p.w.shards > 0 && p.w.req.Consumer == "topk" { // the router asks its shards for groups
		one := func(outbuf.Result) uint64 { return 1 }
		var factory func(int) outbuf.FlushFunc
		factory, collect = volcano.Sink(volcano.NewGroupSum(one), func() volcano.Consumer { return volcano.NewGroupSum(one) })
		opts.Consumer = timer.wrap(factory)
	}
	start := time.Now()
	res, err := skewjoin.Join(alg, rRel, sRel, opts)
	end := time.Now()
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", alg, err)
	}
	id := p.tr.add("join."+string(alg), req, parent, start, end, false)
	at := start
	if alg == skewjoin.SSJ {
		// SSJ times only its stream phase; the tables, task queue and
		// buffers it sets up first take the rest of its wall time.
		setup := end.Sub(start) - res.Phase("stream")
		p.tr.add("ssj.setup", req, id, at, at.Add(setup), true)
		l.add("ssj.setup_ms", ms(setup))
		l.add("reconcile.untimed_ms", ms(setup))
		at = at.Add(setup)
	}
	for _, ph := range res.Phases {
		if alg == skewjoin.Split && ph.Name == "join" {
			continue // the split's join phase is the modelled join side
		}
		p.tr.add(string(alg)+"."+ph.Name, req, id, at, at.Add(ph.Duration), true)
		l.add(string(alg)+"."+ph.Name+"_ms", ms(ph.Duration))
		at = at.Add(ph.Duration)
	}
	layers := at.Sub(start)
	if collect != nil {
		mStart := time.Now()
		collect()
		p.tr.add("volcano.merge", req, parent, mStart, time.Now(), false)
		l.add("volcano.merge_ms", ms(time.Since(mStart)))
		consume, results := timer.totals()
		l.add("volcano.consume_ms", ms(consume))
		l.add("volcano.results", float64(results))
	}
	if jp := res.JoinPhase; jp != nil {
		l.add("joinphase.build_ms", float64(jp.BuildNs)*msPerNs)
		l.add("joinphase.probe_ms", float64(jp.ProbeNs)*msPerNs)
		l.add("joinphase.visits", float64(jp.ProbeVisits))
		l.add("joinphase.tasks", float64(jp.Tasks))
		l.max("joinphase.max_chain", float64(jp.MaxChain))
	}
	l.add("join.results", float64(res.Matches))
	if st := res.Stream; st != nil && alg == skewjoin.SSJ {
		l.add("ssj.first_result_ms", float64(st.FirstResultNs)*msPerNs)
		l.add("ssj.limit_ms", float64(st.LimitNs)*msPerNs)
		l.add("ssj.tail_ms", ms(res.Phase("stream"))-float64(st.LimitNs)*msPerNs)
		if p.w.limit > 0 {
			l.add("ssj.overshoot", float64(st.Staged)/float64(p.w.limit))
		}
	}
	if st := res.Split; st != nil {
		if err := samePlan(st, live); err != nil {
			return 0, err
		}
		// split.partition_ms came with the phases above.
		l.add("costmodel.plan_ms", float64(st.PlanNs)*msPerNs)
		l.add("split.cpu_leg_ms", float64(st.CPUWallNs)*msPerNs)
		// The simulator reports only modelled time, so the legs' window
		// is what the replay's wall time leaves after partition and plan.
		legs := end.Sub(start) - time.Duration(st.PartitionNs+st.PlanNs)
		p.tr.add("split.legs", req, id, at, at.Add(legs), true)
		l.add("gpusim.leg_host_ms", ms(legs))
		l.add("reconcile.untimed_ms", ms(legs))
		layers += legs
		if st.Fragmented() {
			l.add("split.fragmented", 1)
		}
		l.add("split.makespan_ms_modelled", float64(st.MakespanNs)*msPerNs)
		if st.Plan != nil && st.JoinSideNs() > 0 {
			l.add("costmodel.pred_err", math.Abs(float64(st.Plan.PredictedMakespanNs-st.JoinSideNs()))/float64(st.JoinSideNs()))
		}
	}
	return layers, nil
}

// samePlan checks that a replayed split placed and fragmented the work as
// the served request did.
func samePlan(st *skewjoin.SplitStats, live *service.SplitInfo) error {
	pl := st.Plan
	if pl == nil || live == nil {
		return fmt.Errorf("split replay: plan %v, served plan %v", pl != nil, live != nil)
	}
	got := service.SplitInfo{Split: pl.Split, CPUParts: len(pl.CPUParts), GPUParts: len(pl.GPUParts), Fragmented: pl.Fragmented()}
	want := service.SplitInfo{Split: live.Split, CPUParts: live.CPUParts, GPUParts: live.GPUParts, Fragmented: live.Fragmented}
	if got.Fragmented {
		got.FragmentedPart, got.CPUFragments, got.GPUFragments = pl.FragmentedPart, st.CPUFragments, st.GPUFragments
		want.FragmentedPart, want.CPUFragments, want.GPUFragments = live.FragmentedPart, live.CPUFragments, live.GPUFragments
	}
	if got != want {
		return fmt.Errorf("split replay ran plan %+v, the server %+v", got, want)
	}
	return nil
}

func without(rel skewjoin.Relation, drop map[relation.Key]bool) skewjoin.Relation {
	kept := make([]relation.Tuple, 0, len(rel.Tuples))
	for _, t := range rel.Tuples {
		if !drop[t.Key] {
			kept = append(kept, t)
		}
	}
	return skewjoin.Relation{Tuples: kept}
}

// decompose replays Cbase layer by layer: radix.Partition on both inputs,
// overlapped as Cbase runs them, then joinphase.Run. It checks the output
// against the oracle and returns the two layers' summed time.
func (p *replayer) decompose(ctx context.Context, req int, r, s skewjoin.Relation, want *oracle, l *layers) (time.Duration, error) {
	cfg := cbase.Config{Threads: p.threads}.Defaults()
	rcfg := radix.Config{Threads: cfg.Threads, Bits1: cfg.Bits1, Bits2: cfg.Bits2, Ctx: ctx}
	rc, sc := rcfg, rcfg
	rc.Threads, sc.Threads = exec.SplitThreads(cfg.Threads, r.Len(), s.Len())
	start := time.Now()
	root := p.tr.add("cbase.decomposition", req, 0, start, start, false)
	var pr, ps *radix.Partitioned
	var prEnd time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pr = radix.Partition(r.Tuples, rc, nil)
		prEnd = time.Now()
	}()
	if cfg.Threads < 2 {
		wg.Wait() // one thread: the passes run one after the other
	}
	sStart := time.Now()
	ps = radix.Partition(s.Tuples, sc, nil)
	sEnd := time.Now()
	wg.Wait()
	p.tr.add("radix.partition", req, root, start, prEnd, false)
	p.tr.add("radix.partition", req, root, sStart, sEnd, false)
	partEnd := time.Now()
	l.add("radix.partition_ms", ms(partEnd.Sub(start)))

	bufs := make([]*outbuf.Buffer, cfg.Threads)
	for i := range bufs {
		bufs[i] = outbuf.New(cfg.OutBufCap)
	}
	st := joinphase.Run(pr, ps, joinphase.Config{Threads: cfg.Threads, SkewFactor: cfg.SkewFactor, Ctx: ctx}, bufs)
	for _, b := range bufs {
		b.Flush()
	}
	end := time.Now()
	p.tr.add("joinphase.run", req, root, partEnd, end, false)
	p.tr.finish(root)
	if st.Canceled {
		return 0, ctx.Err()
	}
	if sum := outbuf.Summarize(bufs); sum.Count != want.expected.Matches || sum.Checksum != want.expected.Checksum {
		return 0, fmt.Errorf("decomposed Cbase digest (%d, %#x), oracle (%d, %#x)", sum.Count, sum.Checksum, want.expected.Matches, want.expected.Checksum)
	}
	return partEnd.Sub(start) + end.Sub(partEnd), nil
}

// shardCalls lists the joins a shard ran for the request: its hash
// fragments with the hot keys excluded, plus the replicated-build ×
// split-probe hot fragments when the router shipped them to this shard.
func shardCalls(cat *service.Catalog, hot []uint32) ([]call, error) {
	r, okR := cat.Get("r")
	s, okS := cat.Get("s")
	if !okR || !okS {
		return nil, errors.New("shard catalog lacks r or s")
	}
	calls := []call{{r: r, s: s, exclude: hot}}
	var rep, spl *service.Entry
	for _, e := range cat.List() {
		switch {
		case strings.HasPrefix(e.Name, "r@rep."):
			rep = e
		case strings.HasPrefix(e.Name, "s@spl."):
			spl = e
		}
	}
	if len(hot) > 0 && rep != nil && spl != nil {
		calls = append(calls, call{r: rep, s: spl})
	}
	return calls, nil
}

// replay re-runs one answered request and returns the sum of its replayed
// layers, which must reconcile with serverMS: the front service's join_ms,
// or for the fleet the sum of the shards' join_ms.
func (p *replayer) replay(ctx context.Context, req int, d *deployment, a *answer, want *oracle, l *layers) (layersMS, serverMS float64, err error) {
	start := time.Now()
	root := p.tr.add("replay", req, 0, start, start, false)
	if d.router == nil {
		r, okR := d.services[0].Catalog().Get("r")
		s, okS := d.services[0].Catalog().Get("s")
		if !okR || !okS {
			return 0, 0, errors.New("catalog lacks r or s")
		}
		l.add("planner.recommend_us", float64(p.plannerTime(req, root, r.Stats))/1e3)
		total, err := p.runCall(ctx, req, root, call{r: r, s: s}, a.Split, l)
		p.tr.finish(root)
		if err != nil {
			return 0, 0, err
		}
		if p.w.name == "uniform" {
			if total, err = p.decompose(ctx, req, r.Rel, s.Rel, want, l); err != nil {
				return 0, 0, err
			}
		}
		return ms(total), a.JoinMS, nil
	}

	// The fleet: every shard's calls, shards concurrently as the router
	// fans out, each shard's calls in order.
	if a.Cluster == nil {
		p.tr.finish(root)
		return 0, 0, errors.New("router answer lacks the cluster breakdown")
	}
	hot := a.Cluster.HotKeys
	shardMS := make([]float64, len(d.services))
	errs := make([]error, len(d.services))
	var wg sync.WaitGroup
	for i, svc := range d.services {
		wg.Add(1)
		go func(i int, cat *service.Catalog) {
			defer wg.Done()
			calls, err := shardCalls(cat, hot)
			if err != nil {
				errs[i] = err
				return
			}
			sStart := time.Now()
			sid := p.tr.add(fmt.Sprintf("shard%d", i), req, root, sStart, sStart, false)
			var total time.Duration
			for _, c := range calls {
				if i == 0 {
					l.add("planner.recommend_us", float64(p.plannerTime(req, sid, c.r.Stats))/1e3)
				}
				dur, err := p.runCall(ctx, req, sid, c, nil, l)
				if err != nil {
					errs[i] = err
					return
				}
				total += dur
			}
			p.tr.finish(sid)
			shardMS[i] = ms(total)
		}(i, svc.Catalog())
	}
	wg.Wait()
	p.tr.finish(root)
	if err := errors.Join(errs...); err != nil {
		return 0, 0, err
	}
	var live []float64
	for _, sh := range a.Cluster.Shards {
		live = append(live, sh.JoinMS)
	}
	lo, hi := minMax(live)
	l.add("cluster.shard_join_ms_max", hi)
	if lo > 0 {
		l.add("cluster.shard_imbalance", hi/lo)
	}
	for _, sh := range a.Cluster.Shards {
		l.add("cluster.calls", float64(sh.Calls))
	}
	l.add("cluster.hot_keys", float64(len(hot)))
	// The shards time-share the host's cores, so which one is slowest
	// varies between the live request and its replay; their summed join
	// time does not.
	return sum(shardMS), sum(live), nil
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// registerReplay times the service's registration path for one shard's
// share of the inputs, in process with no network in between.
func registerReplay(cat *service.Catalog) (time.Duration, error) {
	var bodies [][]byte
	for _, name := range []string{"r", "s"} {
		e, ok := cat.Get(name)
		if !ok {
			return 0, fmt.Errorf("catalog lacks %s", name)
		}
		b, err := registerBody(name, e.Rel)
		if err != nil {
			return 0, err
		}
		bodies = append(bodies, b)
	}
	svc := service.New(service.Config{})
	start := time.Now()
	for _, b := range bodies {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/relations", strings.NewReader(string(b))))
		if rec.Code != http.StatusCreated {
			return 0, fmt.Errorf("register replay: HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
	return time.Since(start), nil
}

// perLayer names every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"service.overhead_ms", "ms"}, {"service.wait_ms", "ms"}, {"service.register_ms", "ms"},
	{"planner.recommend_us", "us"},
	{"radix.partition_ms", "ms"},
	{"joinphase.build_ms", "ms"}, {"joinphase.probe_ms", "ms"}, {"joinphase.visits_per_result", "ratio"},
	{"joinphase.tasks", "count"}, {"joinphase.max_chain", "count"},
	{"csh.sample_ms", "ms"}, {"csh.partition_ms", "ms"}, {"csh.nmjoin_ms", "ms"},
	{"ssj.setup_ms", "ms"}, {"ssj.first_result_ms", "ms"}, {"ssj.limit_ms", "ms"}, {"ssj.tail_ms", "ms"},
	{"ssj.overshoot", "ratio"},
	{"volcano.consume_ms", "ms"}, {"volcano.merge_ms", "ms"}, {"volcano.results", "count"},
	{"cluster.overhead_ms", "ms"}, {"cluster.shard_join_ms_max", "ms"}, {"cluster.shard_imbalance", "ratio"},
	{"cluster.calls", "count"}, {"cluster.hot_keys", "count"}, {"cluster.register_ms", "ms"},
	{"costmodel.plan_ms", "ms"}, {"costmodel.pred_err", "ratio"},
	{"split.partition_ms", "ms"}, {"split.cpu_leg_ms", "ms"}, {"split.fragmented", "count"},
	{"split.makespan_ms_modelled", "ms"},
	{"gpusim.leg_host_ms", "ms"},
	{"runtime.alloc_mib_per_join", "MiB"}, {"runtime.gc_per_join", "count"},
	{"trace.overhead_ms", "ms"},
	{"reconcile.layers_over_join", "ratio"},
}

// tracedRun measures the per-layer metrics: an untraced closed loop for
// half the time, then, for the other half, every request is traced and
// replayed through the layers' public functions.
func tracedRun(ctx context.Context, w workload, seed int64, length time.Duration) (res result, err error) {
	s, err := setUp(ctx, w, seed, 0, 0) // no timed set-ups: setup_s is not a per-layer metric
	defer func() { err = errors.Join(err, s.close()) }()
	if s != nil {
		res.Attempted = s.joins
	}
	if err != nil {
		res.Failed = 1
		return res, err
	}
	s.printPath()
	d := s.d
	p := &replayer{w: w, tr: &tracer{epoch: time.Now()}, threads: threadWeight(w), cal: d.cal}
	regMS := ms(s.regDur)
	if d.router != nil {
		reg, err := registerReplay(d.services[0].Catalog())
		if err != nil {
			return res, err
		}
		regMS = ms(reg)
	}

	untraced, err := closedLoop(ctx, w, s, length/2, 1)
	res.Attempted += untraced.attempted
	if err != nil {
		res.Failed = 1
		return res, err
	}

	var rtts, layersMS, serverMS []float64
	samples := map[string][]float64{}
	deadline := time.Now().Add(length / 2)
	for i := 1; i == 1 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Attempted++
		reqStart := time.Now()
		a, rtt, err := d.join(ctx, w, s.body, s.want)
		if err != nil {
			res.Failed = 1
			return res, fmt.Errorf("traced request %d: %w", i, err)
		}
		p.tr.add("request", i, 0, reqStart, reqStart.Add(rtt), false)
		if a.JoinMS+a.WaitMS > ms(rtt) {
			return res, fmt.Errorf("request %d: server join_ms %.3f + wait_ms %.3f exceed the round trip %.3f ms", i, a.JoinMS, a.WaitMS, ms(rtt))
		}
		l := &layers{v: map[string]float64{}}
		rep, srv, err := p.replay(ctx, i, d, a, s.want, l)
		if err != nil {
			return res, err
		}
		rtts = append(rtts, ms(rtt))
		layersMS = append(layersMS, rep)
		serverMS = append(serverMS, srv)
		l.add("service.overhead_ms", ms(rtt)-a.JoinMS-a.WaitMS)
		l.add("service.wait_ms", a.WaitMS)
		if d.router != nil {
			l.add("cluster.overhead_ms", ms(rtt)-l.get("cluster.shard_join_ms_max"))
		}
		l.mu.Lock()
		for k, v := range l.v {
			samples[k] = append(samples[k], v)
		}
		l.mu.Unlock()
	}

	m := map[string]float64{}
	for k, v := range samples {
		m[k] = median(v)
	}
	// Uniform measures radix partitioning directly through its Cbase
	// decomposition; elsewhere it is Cbase's partition phase, where Cbase ran.
	if w.name != "uniform" {
		m["radix.partition_ms"] = m["cbase.partition_ms"]
	}
	if m["join.results"] > 0 {
		m["joinphase.visits_per_result"] = m["joinphase.visits"] / m["join.results"]
	}
	m["service.register_ms"] = regMS
	if d.router != nil {
		m["cluster.register_ms"] = ms(s.regDur)
	}
	n := float64(len(untraced.rtts))
	m["runtime.alloc_mib_per_join"] = float64(untraced.allocs) / (1 << 20) / n
	m["runtime.gc_per_join"] = float64(untraced.gcs) / n
	m["trace.overhead_ms"] = median(rtts) - median(untraced.rtts)
	ratio := median(layersMS) / median(serverMS)
	m["reconcile.layers_over_join"] = ratio

	printLayers(p.tr, len(rtts), median(rtts), median(serverMS))
	summed := "the replayed operator's phases"
	if w.name == "uniform" {
		summed = "the Cbase decomposition, radix.Partition ×2 + joinphase.Run"
	}
	fmt.Printf("reconcile: %s sum to %.3f ms (%.3f ms of it untimed by the operator) vs server join_ms %.3f ms (ratio %.3f, tolerance ±%.0f%%) over %d traced requests\n",
		summed, median(layersMS), m["reconcile.untimed_ms"], median(serverMS), ratio, reconcileTolerance*100, len(rtts))
	path := filepath.Join(traceDir, fmt.Sprintf("perfbench-trace-%s-%d.json", w.name, seed))
	if err := p.tr.write(path); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s\n", path)

	res.Metrics = map[string]metric{}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	if math.Abs(ratio-1) > reconcileTolerance {
		res.Failed = 1
		return res, fmt.Errorf("layers do not reconcile: layers/join_ms = %.3f, tolerance ±%.2f", ratio, reconcileTolerance)
	}
	res.Correct = true
	return res, nil
}

// printLayers prints each span name's median self time over the traced
// requests and its share of the request's round trip.
func printLayers(tr *tracer, requests int, rttMS, joinMS float64) {
	self := map[string][]float64{}
	for req := 1; req <= requests; req++ {
		for name, d := range tr.selfTimes(req) {
			self[name] = append(self[name], ms(d))
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("layers (median self time; share of the %.3f ms round trip; server join_ms %.3f):\n", rttMS, joinMS)
	for _, n := range names {
		v := median(self[n])
		fmt.Printf("  %-36s %10.3f ms %6.1f%%\n", n, v, 100*v/rttMS)
	}
}
