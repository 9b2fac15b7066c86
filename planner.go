package skewjoin

import (
	"skewjoin/internal/costmodel"
	"skewjoin/internal/freqtable"
	"skewjoin/internal/relation"
)

// Recommendation is the planner's advice for one join: which CPU and which
// GPU algorithm to use, and the evidence it based the decision on.
//
// The rule mirrors the algorithms' own detection logic: a cheap sample of R
// is counted in a frequency table, and if any key's sampled frequency
// reaches the CSH threshold *and* its estimated full-table frequency is
// large enough to dominate a cache/shared-memory-sized partition, the
// skew-conscious variants are worth their detection overhead. On
// near-uniform inputs the baselines avoid CSH's checkup-table probes and
// GSH's division pass (the paper: both skew-conscious joins are merely
// "comparable" to the baselines at zipf 0-0.4).
type Recommendation struct {
	// CPU is Cbase or CSH; GPU is Gbase or GSH.
	CPU, GPU Algorithm
	// SkewDetected reports whether the sample triggered the skew rule.
	SkewDetected bool
	// TopKeyEstimate is the estimated full-table frequency of the most
	// popular sampled key.
	TopKeyEstimate int
	// SampleSize is the number of R tuples inspected.
	SampleSize int
	// Streaming advises the streaming symmetric join (SSJ) instead of a
	// blocking operator. Set only for limited requests
	// (PlannerConfig.Limit > 0) that a stream can satisfy early: either
	// the limit is small relative to the input, or the cached heavy
	// hitters alone produce enough matches within the first chunks (the
	// skew-aware tiebreak — a hot key's output is quadratic in its
	// frequency, so it floods the limit almost immediately). Full scans
	// stay on the blocking operators, which are ~equally fast end-to-end
	// and cheaper per tuple.
	Streaming bool
}

// PlannerConfig tunes Recommend. The zero value uses CSH's detection
// parameters.
type PlannerConfig struct {
	// SampleRate is the fraction of R sampled (default 0.01).
	SampleRate float64
	// MinFrequency is the sampled-frequency trigger (default 2, as CSH).
	MinFrequency uint32
	// PartitionTuples is the partition budget a skewed key must be able to
	// dominate before skew handling pays off (default 4096, a
	// shared-memory/cache-sized partition).
	PartitionTuples int
	// Limit is the request's result limit (0 = full scan). A non-zero
	// limit makes the planner consider the streaming symmetric join —
	// see Recommendation.Streaming.
	Limit int
}

// streamFraction is the limit-to-input ratio below which a limited
// request is planned on the streaming join: a limit under 1/8 of the
// input is satisfied long before a blocking join's partition phase even
// finishes. Above it the streaming rule falls back to the skew tiebreak.
const streamFraction = 8

func (c PlannerConfig) defaults() PlannerConfig {
	if c.SampleRate <= 0 {
		c.SampleRate = 0.01
	}
	if c.MinFrequency == 0 {
		c.MinFrequency = 2
	}
	if c.PartitionTuples <= 0 {
		c.PartitionTuples = 4096
	}
	return c
}

// stride converts SampleRate into the sampling stride every planner scan
// uses. Rates above 1.0 are clamped to 1.0 (nothing can be sampled more
// often than every tuple; previously such rates silently degraded to
// stride 1, which was accidental rather than defined behaviour). The
// stride is rounded to nearest instead of truncated, so e.g. rate 0.15
// gives stride 7 (14.3%) rather than stride 6 (16.7%) — truncation
// always over-samples, biasing every rate between two divisors upward.
func (c PlannerConfig) stride() int {
	rate := c.SampleRate
	if rate > 1 {
		rate = 1
	}
	stride := int(1/rate + 0.5)
	if stride < 1 {
		stride = 1
	}
	return stride
}

// EstimateOutput estimates the join output cardinality |R ⋈ S| from
// samples of both tables, using the cross-sample estimator:
//
//	Σ_k fR(k)·fS(k) / (rateR · rateS)
//
// over the sampled frequency tables. Under skew the estimate is driven by
// the heavy keys, which sampling captures reliably; it underestimates the
// contribution of near-unique keys (which a 1% sample rarely pairs up),
// so treat it as an estimate of the skew-dominated output — exactly the
// part that decides between the baseline and the skew-conscious join.
func EstimateOutput(r, s Relation, cfg PlannerConfig) uint64 {
	cfg = cfg.defaults()
	if r.Len() == 0 || s.Len() == 0 {
		return 0
	}
	stride := cfg.stride()
	count := func(rel Relation) (*freqtable.Counter, int) {
		c := freqtable.New(rel.Len()/stride + 1)
		n := 0
		for i := 0; i < rel.Len(); i += stride {
			c.Add(rel.Tuples[i].Key)
			n++
		}
		return c, n
	}
	cr, nr := count(r)
	cs, ns := count(s)
	if nr == 0 || ns == 0 {
		return 0
	}
	var crossSample uint64
	cr.Each(func(k relation.Key, fr uint32) {
		if fs := cs.Count(k); fs > 0 {
			crossSample += uint64(fr) * uint64(fs)
		}
	})
	scaleR := float64(r.Len()) / float64(nr)
	scaleS := float64(s.Len()) / float64(ns)
	return uint64(float64(crossSample) * scaleR * scaleS)
}

// RecommendFromStats picks between the baseline and skew-conscious
// algorithms from a relation's cached statistics, without rescanning the
// relation. It applies Recommend's rule with the exact top-key frequency
// standing in for the sampled estimate: the expected sampled frequency of
// the top key is MaxKeyFreq/stride, and the extrapolation back is
// MaxKeyFreq itself. The service layer's catalog uses this to plan `auto`
// joins from statistics computed once at registration time.
func RecommendFromStats(st RelationStats, cfg PlannerConfig) Recommendation {
	cfg = cfg.defaults()
	rec := Recommendation{CPU: Cbase, GPU: Gbase}
	if st.Tuples == 0 {
		return rec
	}
	stride := cfg.stride()
	rec.SampleSize = (st.Tuples + stride - 1) / stride
	rec.TopKeyEstimate = st.MaxKeyFreq
	expectedSampled := uint32(st.MaxKeyFreq / stride)
	if expectedSampled >= cfg.MinFrequency && st.MaxKeyFreq >= cfg.PartitionTuples/4 {
		rec.SkewDetected = true
		rec.CPU, rec.GPU = CSH, GSH
	}
	rec.Streaming = planStreaming(cfg, st.Tuples, hotOutput(st))
	return rec
}

// hotOutput estimates how many results the cached heavy hitters alone
// contribute: a key with frequency f on one side matched against a
// comparably hot other side yields ~f² pairs. TopKeys is the cached
// heavy-hitter list; MaxKeyFreq stands in when it is absent.
func hotOutput(st RelationStats) uint64 {
	if len(st.TopKeys) == 0 {
		return uint64(st.MaxKeyFreq) * uint64(st.MaxKeyFreq)
	}
	var out uint64
	for _, kf := range st.TopKeys {
		out += uint64(kf.Freq) * uint64(kf.Freq)
	}
	return out
}

// planStreaming applies the streaming rule: only limited requests
// stream, and only when the limit is small relative to the input or the
// hot keys alone satisfy it early (the skew-aware tiebreak).
func planStreaming(cfg PlannerConfig, tuples int, hotOut uint64) bool {
	if cfg.Limit <= 0 {
		return false
	}
	if cfg.Limit <= tuples/streamFraction {
		return true
	}
	return hotOut >= uint64(cfg.Limit)
}

// Recommend samples R and picks between the baseline and skew-conscious
// algorithm for each architecture. It is the adaptive-dispatcher pattern
// for skewed hash joins, built from the paper's own detection machinery.
func Recommend(r Relation, cfg PlannerConfig) Recommendation {
	cfg = cfg.defaults()
	rec := Recommendation{CPU: Cbase, GPU: Gbase}
	if r.Len() == 0 {
		return rec
	}
	stride := cfg.stride()
	counter := freqtable.New(r.Len()/stride + 1)
	var topSampled uint32
	for i := 0; i < r.Len(); i += stride {
		if c := counter.Add(relation.Key(r.Tuples[i].Key)); c > topSampled {
			topSampled = c
		}
	}
	rec.SampleSize = (r.Len() + stride - 1) / stride
	rec.TopKeyEstimate = int(topSampled) * stride
	// Skewed enough to matter: the trigger frequency was reached in the
	// sample and the extrapolated count would fill a partition budget.
	if topSampled >= cfg.MinFrequency && rec.TopKeyEstimate >= cfg.PartitionTuples/4 {
		rec.SkewDetected = true
		rec.CPU, rec.GPU = CSH, GSH
	}
	est := uint64(rec.TopKeyEstimate)
	rec.Streaming = planStreaming(cfg, r.Len(), est*est)
	return rec
}

// SplitPlan is the co-processing placement decision: which radix
// partitions the CPU joins and which the simulated GPU joins, with the
// cost model's predictions attached. The split executor plans it after
// partitioning and records it, as executed, in Result.Split.
type SplitPlan struct {
	// Fanout is the radix fanout the partition indices refer to.
	Fanout int
	// CPUParts / GPUParts are the partition indices assigned to each
	// backend, ascending. Every non-empty partition appears exactly once,
	// except a fragmented partition (FragmentedPart), which appears in
	// neither: its placement is the per-range Fragments list.
	CPUParts, GPUParts []int
	// Fragments lists the probe-side sub-ranges of a fragmented hot
	// partition — its build side replicated to both backends, its probe
	// side split cost-proportionally. Empty when no partition fragmented.
	Fragments []SplitFragment
	// FragmentedPart is the fragmented partition's index, -1 when none.
	FragmentedPart int
	// PredictedCPUNs is the predicted CPU-side join time (per-worker busy
	// time); PredictedGPUNs the predicted modelled GPU-side time
	// including H2D/D2H staging; PredictedMakespanNs their max — the
	// predicted join-phase time with both backends overlapped.
	PredictedCPUNs, PredictedGPUNs, PredictedMakespanNs int64
	// PredictedCPUOnlyNs / PredictedGPUOnlyNs are the single-backend
	// controls the split was judged against.
	PredictedCPUOnlyNs, PredictedGPUOnlyNs int64
	// PredictedBalancedNs is the fractional balanced-makespan lower bound
	// — the fragmentation trigger compares the hot partition against it.
	PredictedBalancedNs int64
	// Split reports whether both backends are used. When false the plan
	// degenerated, Degenerate names the backend everything runs on, and
	// DegenerateReason classifies why ("hot-partition-dominates" when the
	// hot partition alone blocks any winning split,
	// "min-win-threshold" when the predicted win fell under the floor,
	// "policy-pinned" when a control policy chose the backend).
	Split            bool
	Degenerate       Backend
	DegenerateReason string
	// Calibration holds the CPU cost constants the plan was built with.
	Calibration Calibration
}

// SplitFragment is one probe-side sub-range of a fragmented partition,
// placed on one backend against the partition's replicated build side.
type SplitFragment struct {
	Part    int     `json:"part"`
	Lo      int     `json:"lo"` // probe range [Lo, Hi)
	Hi      int     `json:"hi"`
	Backend Backend `json:"backend"`
}

// Fragmented reports whether the plan splits one partition across both
// backends.
func (p *SplitPlan) Fragmented() bool { return len(p.Fragments) > 0 }

// FragmentCounts returns how many probe-side fragments each backend
// executes — the per-backend breakdown of a fragmented hot partition.
func (p *SplitPlan) FragmentCounts() (cpu, gpu int) {
	for _, f := range p.Fragments {
		if f.Backend == BackendGPU {
			gpu++
		} else {
			cpu++
		}
	}
	return cpu, gpu
}

// Recommended returns the backend the plan advises: BackendSplit, or the
// single backend a degenerate plan falls back to.
func (p *SplitPlan) Recommended() Backend {
	if p.Split {
		return BackendSplit
	}
	if p.Degenerate == BackendGPU {
		return BackendGPU
	}
	return BackendCPU
}

// resolveCalibration returns *cal if provided, else fits constants with a
// micro-run on the inputs.
func resolveCalibration(cal *Calibration, r, s Relation, threads int) Calibration {
	if cal != nil && cal.Valid() {
		return *cal
	}
	return Calibrate(r, s, threads)
}

// publicSplitPlan converts the internal plan into the public mirror.
func publicSplitPlan(plan costmodel.Plan, fanout int, cal Calibration) *SplitPlan {
	p := &SplitPlan{
		Fanout:              fanout,
		CPUParts:            plan.CPUParts,
		GPUParts:            plan.GPUParts,
		FragmentedPart:      plan.FragPart,
		PredictedCPUNs:      int64(plan.CPUNs),
		PredictedGPUNs:      int64(plan.GPUNs),
		PredictedMakespanNs: int64(plan.MakespanNs),
		PredictedCPUOnlyNs:  int64(plan.CPUOnlyNs),
		PredictedGPUOnlyNs:  int64(plan.GPUOnlyNs),
		PredictedBalancedNs: int64(plan.BalancedNs),
		Split:               plan.Split,
		Calibration:         cal,
	}
	for _, f := range plan.Fragments {
		b := BackendCPU
		if f.Backend == costmodel.GPU {
			b = BackendGPU
		}
		p.Fragments = append(p.Fragments, SplitFragment{Part: f.Part, Lo: f.Lo, Hi: f.Hi, Backend: b})
	}
	if !plan.Split {
		p.Degenerate = BackendCPU
		if plan.Degenerate == costmodel.GPU {
			p.Degenerate = BackendGPU
		}
		p.DegenerateReason = plan.DegenerateReason
	}
	return p
}
