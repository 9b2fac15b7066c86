// Package skewjoin is a from-scratch Go reproduction of "CPU and GPU Hash
// Joins on Skewed Data" (Cai & Chen, ICDE 2024).
//
// It provides five main-memory equi-join implementations over (4-byte key,
// 4-byte payload) tuples:
//
//   - CSH — the paper's CPU Skew-conscious Hash join: skew detection by
//     sampling before partitioning, a hybrid partition phase that joins
//     skewed S tuples on the fly, and a normal radix join for the rest;
//   - Cbase — the baseline parallel radix join (Balkesen et al.);
//   - CbaseNPJ — the baseline no-partition hash join;
//   - GSH — the paper's GPU Skew-conscious Hash join: post-partition skew
//     detection, large-partition division, NM-join plus a massively
//     parallel skew-join phase — running on a deterministic GPU cost
//     simulator (see internal/gpusim and DESIGN.md);
//   - Gbase — the baseline GPU radix join (Sioulas et al.) on the same
//     simulator.
//
// A parallel sort-merge join (SMJ) is included as an extension beyond the
// paper's evaluated set, along with an adaptive planner (Recommend,
// EstimateOutput) and volcano-style result consumers (Options.Consumer).
//
// CPU algorithms report wall-clock phase times; GPU algorithms report
// modelled device time (Result.Modelled is true). All implementations
// produce the same verifiable output summary for the same inputs.
//
// Quick start:
//
//	r, s, _ := skewjoin.GenerateZipfPair(1<<20, 0.9, 42)
//	res, _ := skewjoin.Join(skewjoin.CSH, r, s, nil)
//	fmt.Println(res.Matches, res.Total)
package skewjoin

import (
	"context"
	"fmt"
	"time"

	"skewjoin/internal/cbase"
	"skewjoin/internal/csh"
	"skewjoin/internal/exec"
	"skewjoin/internal/gbase"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/gsh"
	"skewjoin/internal/gsmj"
	"skewjoin/internal/joinphase"
	"skewjoin/internal/npj"
	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/relation"
	"skewjoin/internal/smj"
	"skewjoin/internal/ssj"
	"skewjoin/internal/zipf"
)

// Re-exported data model. The aliases make the internal types usable by
// importers of this package.
type (
	// Key is a 4-byte join key.
	Key = relation.Key
	// Payload is a 4-byte payload column value.
	Payload = relation.Payload
	// Tuple is an 8-byte (key, payload) pair.
	Tuple = relation.Tuple
	// Relation is an in-memory table of tuples.
	Relation = relation.Relation
	// DeviceConfig configures the simulated GPU for Gbase and GSH.
	DeviceConfig = gpusim.Config
)

// Algorithm selects a join implementation.
type Algorithm string

// The five algorithms the paper evaluates.
const (
	Cbase    Algorithm = "cbase"     // baseline CPU parallel radix join
	CbaseNPJ Algorithm = "cbase-npj" // baseline CPU no-partition join
	CSH      Algorithm = "csh"       // CPU skew-conscious hash join (paper contribution)
	Gbase    Algorithm = "gbase"     // baseline GPU radix join (simulated device)
	GSH      Algorithm = "gsh"       // GPU skew-conscious hash join (paper contribution)
)

// SMJ is a parallel sort-merge join — an extension beyond the paper's
// evaluated set, included as the classic alternative in the sort-vs-hash
// debate the paper cites. Its sort phase is skew-independent and its merge
// phase emits equal-key cross products with sequential accesses.
const SMJ Algorithm = "smj"

// GSMJ is the GPU sort-merge join (simulated device) — the sort-vs-hash
// extension on the GPU side, with oversized equal-key runs tiled across
// thread blocks.
const GSMJ Algorithm = "gsmj"

// Algorithms lists the paper's five evaluated implementations in
// presentation order.
func Algorithms() []Algorithm { return []Algorithm{Cbase, CbaseNPJ, CSH, Gbase, GSH} }

// ExtendedAlgorithms lists every implementation, including the extensions
// beyond the paper's evaluated set.
func ExtendedAlgorithms() []Algorithm { return append(Algorithms(), SMJ, GSMJ, SSJ) }

// IsGPU reports whether the algorithm runs on the simulated GPU (its times
// are modelled rather than wall-clock).
func (a Algorithm) IsGPU() bool { return a == Gbase || a == GSH || a == GSMJ }

// Options tunes a join run. The zero value (or nil pointer) uses the
// paper's example parameters everywhere.
type Options struct {
	// Threads is the CPU worker count for Cbase, CbaseNPJ and CSH
	// (default: GOMAXPROCS; the paper used 20).
	Threads int
	// Bits1/Bits2 are the CPU radix partitioning bits per pass.
	Bits1, Bits2 uint32
	// SampleRate is the skew-detection sample fraction for CSH and GSH
	// (default 0.01).
	SampleRate float64
	// SkewThreshold is CSH's sampled-frequency cutoff (default 2).
	SkewThreshold uint32
	// TopK is GSH's per-large-partition skewed key count (default 3).
	TopK int
	// Device configures the simulated GPU (zero fields = A100). Its
	// HostParallelism field sets the host worker pool that executes the
	// simulated thread blocks (Gbase, GSH, GSMJ and Split's GPU leg; 0 or
	// 1 = one worker); any setting is bit-identical to one worker and
	// changes only the wall-clock cost of simulation.
	Device DeviceConfig
	// OutBufCap overrides the per-worker output ring capacity.
	OutBufCap int
	// Limit stops the run once at least this many results have been
	// staged for the consumer (0 = run to completion). The SSJ streaming
	// operator observes it at chunk granularity; the blocking CPU
	// algorithms (Cbase, CbaseNPJ, CSH, SMJ) observe it at their usual
	// cancellation boundaries, so they overshoot far more — the gap the
	// stream benchmark measures. A limit-terminated run returns
	// successfully with Result.Stream.LimitHit set and a partial output
	// digest of at least Limit results. The GPU algorithms and Split
	// reject a limit (their output totals are modelled, not streamed).
	Limit int
	// Consumer optionally attaches a volcano-style upper operator: for
	// each worker (CPU thread or simulated SM) the factory returns a
	// callback that receives every full output-ring batch, plus the final
	// partial batch before Join returns. Batches are ring-backed and must
	// not be retained. The factory itself is called sequentially.
	Consumer func(worker int) ResultConsumer
	// Context optionally bounds the run: when it is cancelled or its
	// deadline passes, Join returns ctx.Err() instead of a result. For
	// Cbase and CSH cancellation is honoured at phase boundaries and
	// between join tasks, so a run stops burning workers within one task's
	// latency; the other algorithms check it only between phases. A nil
	// Context never cancels.
	Context context.Context
	// SplitPolicy selects the Split mode's placement policy (default
	// SplitPolicyModel, the cost-model placement; SplitPolicyCPU/GPU pin
	// every partition to one side — the benchmark's control rows).
	SplitPolicy SplitPolicy
	// Calibration optionally supplies pre-fitted CPU cost-model constants
	// for the Split mode; nil calibrates with a micro-run per join (the
	// service layer caches a calibration in its catalog instead).
	Calibration *Calibration
	// Fragments is the Split mode's fragmentation granularity: when the
	// cost model finds the hot partition dominating the makespan, its
	// probe side is cut into this many cost-proportional sub-ranges and
	// split across both backends with the build side replicated (default
	// 8, minimum 2; negative disables fragmentation so the radix
	// partition stays the atomic placement unit).
	Fragments int
	// SplitMinWinNs / SplitWinFraction override the Split mode's
	// degeneration thresholds: a split must be predicted to beat the
	// better single backend by max(SplitMinWinNs,
	// SplitWinFraction·better) or it degenerates (defaults 25ms / 0.10;
	// zero keeps the default — the benchmarks lower the floor to exercise
	// split paths at smoke-test sizes).
	SplitMinWinNs    int64
	SplitWinFraction float64
}

// JoinResult is one join output tuple as delivered to consumers.
type JoinResult = outbuf.Result

// ResultConsumer receives batches of join results (the upper operator of
// the paper's volcano consumption model).
type ResultConsumer = outbuf.FlushFunc

// Phase is one named, timed section of a join run.
type Phase struct {
	Name     string
	Duration time.Duration
}

// JoinPhaseStats reports the internals of a CPU join (or probe) phase:
// task counts, skew symptoms, and the build/probe CPU-time split summed
// across workers (so the sums can exceed the phase's wall-clock on
// multi-threaded runs).
type JoinPhaseStats struct {
	// Tasks is the number of join tasks drained, including probe
	// sub-tasks created by splitting (0 for CbaseNPJ, which has no tasks).
	Tasks int
	// SplitTasks is the number of oversized tasks broken up.
	SplitTasks int
	// MaxChain is the longest hash chain (largest bucket) built.
	MaxChain int
	// ProbeVisits is the total bucket entries inspected while probing.
	ProbeVisits uint64
	// BuildNs is CPU time spent building hash tables, in nanoseconds.
	BuildNs int64
	// ProbeNs is CPU time spent probing, in nanoseconds.
	ProbeNs int64
}

// Result is the outcome of a join run.
type Result struct {
	Algorithm Algorithm
	// Matches is the exact output cardinality.
	Matches uint64
	// Checksum is the order-independent output checksum; compare against
	// Expected to verify a run.
	Checksum uint64
	// Phases is the per-phase time breakdown (wall-clock for CPU
	// algorithms, modelled device time for GPU algorithms).
	Phases []Phase
	// Total is the sum of the phases.
	Total time.Duration
	// Modelled is true when times come from the GPU cost simulator.
	Modelled bool
	// JoinPhase holds join-phase internals for the CPU hash joins (Cbase,
	// CSH — where it covers the NM-join — and CbaseNPJ); for Split it
	// covers the CPU side of the co-processed join. Nil for the GPU
	// algorithms and SMJ.
	JoinPhase *JoinPhaseStats
	// Split reports the placement, per-backend times and imbalance of a
	// Split (co-processing) run; nil for every other algorithm. Its CPU
	// times are host times while its GPU times are modelled device time
	// (Modelled stays false — the result's own Phases mix both clocks, as
	// documented on SplitStats).
	Split *SplitStats
	// Stream reports incremental-delivery milestones: time to first
	// result, time to limit, and whether Options.Limit terminated the
	// run. Always set for SSJ; set for the blocking CPU algorithms when
	// a limit was requested; nil otherwise.
	Stream *StreamStats
}

// Summary is a verifiable output digest: cardinality plus checksum.
type Summary struct {
	Matches  uint64
	Checksum uint64
}

// Summary returns the result's output digest.
func (r Result) Summary() Summary { return Summary{Matches: r.Matches, Checksum: r.Checksum} }

// Phase returns the duration recorded under name (0 if absent).
func (r Result) Phase(name string) time.Duration {
	var sum time.Duration
	for _, p := range r.Phases {
		if p.Name == name {
			sum += p.Duration
		}
	}
	return sum
}

// Join runs the selected algorithm over r and s. opts may be nil. When
// opts.Context is cancelled before the run completes, Join discards the
// partial output and returns the context's error.
func Join(alg Algorithm, r, s Relation, opts *Options) (Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	ctx := opts.Context
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if opts.Limit > 0 && (alg.IsGPU() || alg == Split) {
		return Result{}, fmt.Errorf("skewjoin: algorithm %q cannot early-terminate: limit requires a CPU operator (the GPU totals are modelled, not streamed)", alg)
	}
	limit := uint64(0)
	if opts.Limit > 0 {
		limit = uint64(opts.Limit)
	}
	switch alg {
	case Cbase:
		lim, runCtx, flush, cancel := newLimiter(limit, ctx, opts.Consumer)
		defer cancel()
		res := cbase.Join(r, s, cbase.Config{
			Threads: opts.Threads, Bits1: opts.Bits1, Bits2: opts.Bits2,
			OutBufCap: limitBufCap(opts.OutBufCap, limit), Flush: flush,
			Ctx: runCtx,
		})
		if res.Canceled && !lim.hit() {
			return Result{}, ctxErr(ctx)
		}
		out := wrap(alg, res.Summary, phases(res.Phases), false)
		out.JoinPhase = joinPhaseStats(res.Stats.Join)
		lim.annotate(&out)
		return out, nil
	case CbaseNPJ:
		lim, runCtx, flush, cancel := newLimiter(limit, ctx, opts.Consumer)
		defer cancel()
		res := npj.Join(r, s, npj.Config{
			Threads:   opts.Threads,
			OutBufCap: limitBufCap(opts.OutBufCap, limit), Flush: flush,
			Ctx: runCtx,
		})
		if res.Canceled && !lim.hit() {
			return Result{}, ctxErr(ctx)
		}
		out := wrap(alg, res.Summary, phases(res.Phases), false)
		out.JoinPhase = &JoinPhaseStats{ProbeVisits: res.Stats.ProbeVisits}
		lim.annotate(&out)
		return out, nil
	case CSH:
		lim, runCtx, flush, cancel := newLimiter(limit, ctx, opts.Consumer)
		defer cancel()
		res := csh.Join(r, s, csh.Config{
			Threads: opts.Threads, Bits1: opts.Bits1, Bits2: opts.Bits2,
			SampleRate: opts.SampleRate, SkewThreshold: opts.SkewThreshold,
			OutBufCap: limitBufCap(opts.OutBufCap, limit), Flush: flush,
			Ctx: runCtx,
		})
		if res.Canceled && !lim.hit() {
			return Result{}, ctxErr(ctx)
		}
		out := wrap(alg, res.Summary, phases(res.Phases), false)
		out.JoinPhase = joinPhaseStats(res.Stats.NM)
		lim.annotate(&out)
		return out, nil
	case Gbase:
		res := gbase.Join(r, s, gbase.Config{Device: opts.Device, Flush: opts.Consumer})
		if err := ctxErr(ctx); err != nil {
			return Result{}, err
		}
		return wrap(alg, res.Summary, phases(res.Phases), true), nil
	case GSH:
		res := gsh.Join(r, s, gsh.Config{
			Device: opts.Device, SampleRate: opts.SampleRate, TopK: opts.TopK,
			Flush: opts.Consumer,
		})
		if err := ctxErr(ctx); err != nil {
			return Result{}, err
		}
		return wrap(alg, res.Summary, phases(res.Phases), true), nil
	case SMJ:
		lim, runCtx, flush, cancel := newLimiter(limit, ctx, opts.Consumer)
		defer cancel()
		res := smj.Join(r, s, smj.Config{
			Threads: opts.Threads, OutBufCap: limitBufCap(opts.OutBufCap, limit), Flush: flush,
			Ctx: runCtx,
		})
		if res.Canceled && !lim.hit() {
			return Result{}, ctxErr(ctx)
		}
		out := wrap(alg, res.Summary, phases(res.Phases), false)
		lim.annotate(&out)
		return out, nil
	case SSJ:
		res := ssj.Join(r, s, ssj.Config{
			Threads: opts.Threads, Limit: limit,
			OutBufCap: opts.OutBufCap, Flush: opts.Consumer, Ctx: ctx,
		})
		if res.Canceled {
			return Result{}, ctx.Err()
		}
		out := wrap(alg, res.Summary, phases(res.Phases), false)
		out.JoinPhase = &JoinPhaseStats{
			Tasks:       res.Stats.Chunks,
			MaxChain:    res.Stats.MaxChain,
			ProbeVisits: res.Stats.ProbeVisits,
		}
		out.Stream = streamStats(res.Stats)
		return out, nil
	case Split:
		return joinSplit(r, s, opts)
	case GSMJ:
		res := gsmj.Join(r, s, gsmj.Config{Device: opts.Device, Flush: opts.Consumer})
		if err := ctxErr(ctx); err != nil {
			return Result{}, err
		}
		return wrap(alg, res.Summary, phases(res.Phases), true), nil
	default:
		return Result{}, fmt.Errorf("skewjoin: unknown algorithm %q", alg)
	}
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func wrap(alg Algorithm, sum outbuf.Summary, ph []Phase, modelled bool) Result {
	res := Result{
		Algorithm: alg,
		Matches:   sum.Count,
		Checksum:  sum.Checksum,
		Phases:    ph,
		Modelled:  modelled,
	}
	for _, p := range ph {
		res.Total += p.Duration
	}
	return res
}

// joinPhaseStats converts the internal join-phase stats into the public
// mirror.
func joinPhaseStats(st joinphase.Stats) *JoinPhaseStats {
	return &JoinPhaseStats{
		Tasks:       st.Tasks,
		SplitTasks:  st.SplitTasks,
		MaxChain:    st.MaxChain,
		ProbeVisits: st.ProbeVisits,
		BuildNs:     st.BuildNs,
		ProbeNs:     st.ProbeNs,
	}
}

func phases(ps []exec.Phase) []Phase {
	out := make([]Phase, len(ps))
	for i, p := range ps {
		out[i] = Phase{Name: p.Name, Duration: p.Duration}
	}
	return out
}

// Expected computes the ground-truth output digest of joining r and s, in
// O(|R|+|S|), without materialising the output. Use it to verify any
// Result.
func Expected(r, s Relation) Summary {
	e := oracle.Expected(r, s)
	return Summary{Matches: e.Count, Checksum: e.Checksum}
}

// GenerateZipfPair builds the paper's workload: two n-tuple tables whose
// keys follow a zipf distribution with the given factor, drawn from the
// same interval and unique-key arrays (so popular keys coincide in both
// tables) but independent random streams.
func GenerateZipfPair(n int, theta float64, seed int64) (r, s Relation, err error) {
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: seed})
	if err != nil {
		return Relation{}, Relation{}, err
	}
	r, s = g.Pair(n)
	return r, s, nil
}

// GenerateZipf builds a single n-tuple zipf relation. Relations built from
// the same seed and theta share their key universe, so two calls with
// different stream ids produce joinable tables.
func GenerateZipf(n int, theta float64, seed, stream int64) (Relation, error) {
	g, err := zipf.New(zipf.Config{Theta: theta, Universe: n, Seed: seed})
	if err != nil {
		return Relation{}, err
	}
	return g.NewRelation(n, stream), nil
}

// DefaultThreads returns the CPU worker count used when Options.Threads is
// zero.
func DefaultThreads() int { return exec.DefaultThreads() }
