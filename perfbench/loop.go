package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"skewjoin"
)

// minSamples is the smallest timed loop that supports a p90 with ten
// samples beyond it. A loop that needs more requests than it has at its
// deadline keeps going until it has them, for at most maxLoop in all.
const (
	minSamples = 100
	maxLoop    = 120 * time.Second
)

// Set-ups are repeated until their wall time adds up to setUpBudget, at
// least minSetUps and at most maxSetUps times: set-ups under about 0.5 s
// varied by up to ±25% between runs, those of 1.4 s or more by ±3%.
const (
	setUpBudget          = 2 * time.Second
	minSetUps, maxSetUps = 3, 9
)

// session is the deployment the timed loop runs on, with the set-up times
// of the deployments built before it.
type session struct {
	d    *deployment
	body []byte
	want *oracle
	ref  refKernels
	// setups are the set-up times on the wall clock, in seconds, and
	// setupShare the share of their wanted CPU time not stolen.
	setups     []float64
	setupShare float64
	first      *answer // the first verified answer of the loop's deployment
	regDur     time.Duration
	joins      int // /join requests sent during set-up
}

// setUp times fresh deployments, each from construction through
// registration to the first verified join, minReps to maxReps of them (see
// setUpBudget). They calibrate the split planner lazily, as a new server
// does, so the set-up time pays for it. The timed loop then gets a
// deployment of its own, set up untimed, with pinnedCalibration. Input
// generation and the oracle run first and are not timed; the inputs are
// dropped before setUp returns.
func setUp(ctx context.Context, w workload, seed int64, minReps, maxReps int) (*session, error) {
	in, want, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	s := &session{body: w.body(), want: want, ref: newRefKernels()}
	var total time.Duration
	var stolen stealTicks
	for len(s.setups) < maxReps && (len(s.setups) < minReps || total < setUpBudget) {
		runtime.GC() // start every set-up from the same heap
		mark := markSteal()
		start := time.Now()
		if err := s.deploy(ctx, w, in, nil); err != nil {
			return s, err
		}
		wall := time.Since(start)
		stolen.add(mark, markSteal())
		total += wall
		s.setups = append(s.setups, wall.Seconds())
		err := s.d.close()
		s.d = nil
		if err != nil {
			return s, err
		}
	}
	s.setupShare = stolen.unstolen()
	return s, s.deploy(ctx, w, in, &pinnedCalibration)
}

// deploy builds a deployment into s.d, registers the inputs and sends the
// first join.
func (s *session) deploy(ctx context.Context, w workload, in *inputs, cal *skewjoin.Calibration) error {
	d, err := deploy(w.shards, cal)
	if err != nil {
		return err
	}
	s.d = d
	if s.regDur, err = d.register(ctx, in); err != nil {
		return err
	}
	s.joins++
	if s.first, _, err = d.join(ctx, w, s.body, s.want); err != nil {
		return fmt.Errorf("first join: %w", err)
	}
	return nil
}

// close shuts the loop's deployment down.
func (s *session) close() error {
	if s == nil || s.d == nil {
		return nil
	}
	return s.d.close()
}

// printPath reports the executed path of the first verified answer.
func (s *session) printPath() {
	a := s.first
	p := fmt.Sprintf("algorithm=%s auto=%v", a.Algorithm, a.Auto)
	if a.Planner != nil {
		p += fmt.Sprintf(" skew_detected=%v streaming=%v", a.Planner.SkewDetected, a.Planner.Streaming)
	}
	if c := a.Cluster; c != nil {
		p += fmt.Sprintf(" routing=%s hot_keys=%d", c.Policy, len(c.HotKeys))
	}
	if sp := a.Split; sp != nil {
		c := s.d.cal
		p += fmt.Sprintf(" split=%v degenerate=%q fragmented=%v calibration=pinned(build %.2f ns/tuple, probe %.2f ns/unit)",
			sp.Split, sp.Degenerate, sp.Fragmented, c.BuildNsPerTuple, c.ProbeNsPerUnit)
	}
	fmt.Println("path:", p)
}

// loopStats is what a closed loop observed.
type loopStats struct {
	rtts      []float64 // round trips of the verified joins, ms
	unstolen  []float64 // per request, the share of its steal window's wanted CPU time not stolen
	attempted int
	wall      time.Duration
	loopShare float64       // share of the requests' wanted CPU time not stolen
	speed     speedSamples  // the reference kernel, run after every request
	cpu       time.Duration // process user+sys CPU, the kernel's excluded
	heap      float64       // median heap in use, bytes
	allocs    uint64        // heap bytes allocated
	gcs       uint64        // completed GC cycles
}

// closedLoop sends the workload's request back to back for at least
// length and at least need requests, stopping at the first failure. The
// reference kernel runs after every request, so every request follows the
// same work and the kernel samples the host's speed all through the loop.
func closedLoop(ctx context.Context, w workload, s *session, length time.Duration, need int) (*loopStats, error) {
	st := &loopStats{}
	heap := startHeapSampler()
	before := readRuntime()
	cpu0, err := processCPU()
	if err != nil {
		heap.stop()
		return st, err
	}
	var refCPU time.Duration
	start := time.Now()
	deadline, hardStop := start.Add(length), start.Add(max(length, maxLoop))
	win := stealWindow{start: start}
	var stolen stealTicks // over every request
	var loopErr error
	for {
		now := time.Now()
		if !now.Before(deadline) && (len(st.rtts) >= need || !now.Before(hardStop)) {
			break
		}
		if loopErr = ctx.Err(); loopErr != nil {
			break
		}
		st.attempted++
		mark := markSteal()
		_, rtt, err := s.d.join(ctx, w, s.body, s.want)
		if err != nil {
			loopErr = fmt.Errorf("request %d: %w", st.attempted, err)
			break
		}
		after := markSteal()
		win.ticks.add(mark, after)
		stolen.add(mark, after)
		st.rtts = append(st.rtts, ms(rtt))
		c, err := s.ref.sample(&st.speed)
		if err != nil {
			loopErr = err
			break
		}
		refCPU += c
		if time.Since(win.start) >= stealWindowLen {
			win.close(st)
		}
	}
	if len(st.unstolen) < len(st.rtts) {
		win.close(st)
	}
	st.wall = time.Since(start)
	cpu1, cpuErr := processCPU()
	st.cpu = cpu1 - cpu0 - refCPU
	st.heap = heap.stop()
	st.loopShare = stolen.unstolen()
	after := readRuntime()
	st.allocs = after.allocs - before.allocs
	st.gcs = after.gcs - before.gcs
	return st, errors.Join(loopErr, cpuErr)
}

func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

type runtimeCounters struct{ allocs, gcs uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

// heapSampler polls the bytes of live and not-yet-swept heap objects, the
// Go heap in use. The benchmark reports their median: the maximum of a
// GC-paced heap swings with where collections fall (64.8 or 97.2 MiB in two
// uniform runs of the same code), the median does not.
type heapSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

const heapPoll = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapPoll)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the median heap in use.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return median(h.samples)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

const msPerNs = 1e-6

// endToEndRun measures the end-to-end metrics with tracing off.
func endToEndRun(ctx context.Context, w workload, seed int64, length time.Duration) (res result, err error) {
	s, err := setUp(ctx, w, seed, minSetUps, maxSetUps)
	defer func() { err = errors.Join(err, s.close()) }()
	if s != nil {
		res.Attempted = s.joins
	}
	if err != nil {
		res.Failed = 1
		return res, err
	}
	s.printPath()
	runtime.GC() // the inputs are gone; start the loop from the served heap
	st, err := closedLoop(ctx, w, s, length, minSamples)
	res.Attempted += st.attempted
	res.Failed = st.attempted - len(st.rtts)
	if err != nil {
		return res, err
	}
	n := len(st.rtts)
	if n < minSamples {
		return res, fmt.Errorf("only %d requests completed in %v; p90 needs %d", n, st.wall, minSamples)
	}
	// Round trips are taken on the unstolen clock, each with its window's
	// share, and every timing metric is scaled to the reference kernel's
	// nominal speed (see hostspeed.go). The set-ups take seconds and the
	// loop starts right after them, so they use the loop's kernel times.
	// joins_per_s counts joins per second of client time in /join, which
	// leaves out the kernel's runs between requests.
	wall := append([]float64(nil), st.rtts...)
	unstolen := make([]float64, n)
	for i, rtt := range st.rtts {
		unstolen[i] = rtt * st.unstolen[i]
	}
	sort.Float64s(wall)
	sort.Float64s(unstolen)
	setup, cpuPer := median(s.setups), float64(st.cpu)*msPerNs/float64(n)
	slow := st.speed.slowdown()
	fmt.Printf("samples: %d requests in %.2f s; %d set-ups; %d reference kernel runs\n", n, st.wall.Seconds(), len(s.setups), len(st.speed))
	fmt.Printf("wall clock: setup_s %.4f, latency_ms_p50 %.3f, latency_ms_p90 %.3f, joins_per_s %.3f, cpu_ms_per_join %.3f\n",
		setup, quantile(wall, 0.5), quantile(wall, 0.9), float64(n)/(sum(wall)/1e3), cpuPer)
	fmt.Printf("host: hypervisor steal took %.1f%% of the requests' and %.1f%% of the set-ups' wanted CPU time; the reference kernel ran at %.3f× its nominal CPU time (spread %.3f)\n",
		100*(1-st.loopShare), 100*(1-s.setupShare), slow, st.speed.spread())
	res.Correct = true
	res.Metrics = map[string]metric{
		"setup_s":         {setup * s.setupShare / slow, "s"},
		"latency_ms_p50":  {quantile(unstolen, 0.5) / slow, "ms"},
		"latency_ms_p90":  {quantile(unstolen, 0.9) / slow, "ms"},
		"joins_per_s":     {float64(n) / (sum(unstolen) / 1e3) * slow, "1/s"},
		"cpu_ms_per_join": {cpuPer / slow, "ms"},
		"heap_inuse_mib":  {st.heap / (1 << 20), "MiB"},
	}
	return res, nil
}
