// Package service is the join server: a long-running process that owns a
// catalog of named relations, admits concurrent join requests against a
// shared worker-thread budget, plans `auto` requests with the adaptive
// planner, and serves results plus introspection over plain HTTP+JSON
// (stdlib net/http only, so the whole server is testable with httptest).
//
// The layer exists because the join kernels alone are solo benchmarks: the
// moment several queries share a machine, which backend runs a query and
// how many queries run at once dominate end-to-end behaviour. The server
// makes those decisions explicit — a weighted-semaphore admission
// controller sheds load instead of oversubscribing the pool, and the
// planner picks the skew-conscious or baseline join per request from the
// catalog's cached statistics.
package service

// RegisterRequest is the body of POST /relations. Exactly one of Path,
// Generate and Data must be set: Path loads a binary relation file written
// by cmd/datagen from the server's filesystem; Generate builds a zipf
// relation in place; Data carries the relation inline (base64 of the same
// binary format) — the cluster router ships shard fragments this way.
type RegisterRequest struct {
	Name     string        `json:"name"`
	Path     string        `json:"path,omitempty"`
	Generate *GenerateSpec `json:"generate,omitempty"`
	Data     string        `json:"data,omitempty"`
}

// GenerateSpec describes an in-place zipf relation (the paper's workload
// generator). Relations generated with the same Seed share a key universe,
// so two specs differing only in Stream produce joinable tables.
type GenerateSpec struct {
	N      int     `json:"n"`
	Zipf   float64 `json:"zipf"`
	Seed   int64   `json:"seed"`
	Stream int64   `json:"stream"`
}

// RelationInfo is the wire form of a catalog entry: identity plus the
// cached statistics the planner dispatches on.
type RelationInfo struct {
	Name         string `json:"name"`
	Source       string `json:"source"`
	Tuples       int    `json:"tuples"`
	Bytes        int    `json:"bytes"`
	DistinctKeys int    `json:"distinct_keys"`
	MaxKey       uint32 `json:"max_key"`
	MaxKeyFreq   int    `json:"max_key_freq"`
	// TopKeys are the relation's cached heavy hitters (up to 16), by
	// descending frequency. The cluster router's fragment-and-replicate
	// rule reads them straight from the catalog.
	TopKeys      []KeyFreqInfo `json:"top_keys,omitempty"`
	RegisteredAt string        `json:"registered_at"` // RFC 3339
}

// KeyFreqInfo is one heavy-hitter entry of RelationInfo.TopKeys.
type KeyFreqInfo struct {
	Key  uint32 `json:"key"`
	Freq int    `json:"freq"`
}

// ExtractRequest is the body of POST /relations/{name}/extract: it asks
// for every tuple of the named relation whose key is in Keys, in relation
// order. The cluster router uses it to pull a hot key's tuples off the
// key's hash-owner shard before broadcasting them (fragment-and-replicate).
type ExtractRequest struct {
	Keys []uint32 `json:"keys"`
}

// ExtractResponse carries the extracted tuples in the binary relation
// format, base64-encoded.
type ExtractResponse struct {
	Name   string `json:"name"`
	Tuples int    `json:"tuples"`
	Data   string `json:"data"`
}

// JoinRequest is the body of POST /join.
type JoinRequest struct {
	// R and S name catalog relations (build and probe side).
	R string `json:"r"`
	S string `json:"s"`
	// Algorithm pins a join implementation ("cbase", "csh", "gbase",
	// "gsh", ...) or asks the planner to choose ("auto", the default).
	Algorithm string `json:"algorithm,omitempty"`
	// Backend selects the architecture an `auto` request is planned for:
	// "cpu" (default, Cbase or CSH), "gpu" (Gbase or GSH on the
	// simulator), or "split" (cost-model-driven co-processing: the join is
	// divided across CPU workers and the simulated GPU, degenerating to a
	// single backend when the model predicts no win). Ignored when
	// Algorithm is pinned.
	Backend string `json:"backend,omitempty"`
	// Device selects the simulated GPU profile: "a100" (default, the
	// discrete flagship) or "coupled" (an integrated GPU only a small
	// multiple faster than the host cores — the regime where splitting
	// pays off).
	Device string `json:"device,omitempty"`
	// Threads is this request's worker-thread weight against the server's
	// admission budget (default: the whole budget; clamped to it).
	Threads int `json:"threads,omitempty"`
	// TimeoutMS bounds queue wait plus execution (default: the server's
	// configured timeout). Expiry cancels the join and frees its workers.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Fragments bounds how many pieces a backend:"split" plan may cut the
	// hottest partition into when its cost alone dominates the makespan
	// (intra-partition fragment-and-replicate): 0 keeps the server default
	// (8), 1 asks for the minimum split (2), negative disables
	// fragmentation so such plans degenerate to a single backend instead.
	// Ignored by non-split requests.
	Fragments int `json:"fragments,omitempty"`
	// Consumer selects the volcano upper operator consuming the output:
	// "summary" (default; match count + checksum only), "count" (streamed
	// row count through a volcano.Count sink), "topk" (the exact K
	// heaviest output keys, ties to the smaller key: per-key counts
	// through a volcano.GroupSum sink, then volcano.SelectTop), or
	// "groups" (every exact per-key output count). topk and groups both
	// hold O(distinct output keys) memory on the node that runs them;
	// only groups returns them all.
	Consumer string `json:"consumer,omitempty"`
	// K is the number of keys Consumer "topk" returns (default 5).
	K int `json:"k,omitempty"`
	// Limit stops the join once at least this many results have been
	// staged (0 = full join). Also settable as the ?limit=N query
	// parameter on POST /join (the body field wins when both are given).
	// An `auto` request with a limit is planned onto the streaming
	// symmetric join when the planner predicts the stream satisfies it
	// early; pinned GPU algorithms and backend:"split" reject a limit
	// (their totals are modelled, not streamed). A limit-terminated join
	// responds with stream.limit_hit and a partial result of at least
	// Limit matches.
	Limit int `json:"limit,omitempty"`
	// ExcludeKeys drops every tuple carrying one of these keys from both
	// inputs before the join runs. The cluster router carves the hot keys
	// out of a shard's hash fragments this way while their tuples run
	// through the replicated/split fragments instead; since a result
	// requires equal keys on both sides, excluded-vs-kept cross terms are
	// empty and partial results merge without double counting.
	ExcludeKeys []uint32 `json:"exclude_keys,omitempty"`
	// Routing is a cluster-router field ("hash", "frag" or "auto"); a
	// single-node server rejects requests that set it so a client pointed
	// at the wrong tier fails loudly instead of silently ignoring the
	// routing policy it asked for.
	Routing string `json:"routing,omitempty"`
}

// PhaseInfo is one timed phase of the executed join.
type PhaseInfo struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// PlannerInfo reports the planner evidence behind an `auto` decision.
type PlannerInfo struct {
	SkewDetected   bool `json:"skew_detected"`
	TopKeyEstimate int  `json:"top_key_estimate"`
	SampleSize     int  `json:"sample_size"`
	// Streaming reports that the planner chose the streaming symmetric
	// join for this limited request.
	Streaming bool `json:"streaming,omitempty"`
}

// StreamInfo reports a join's incremental-delivery milestones: present
// for the streaming symmetric join (always) and for blocking CPU joins
// that ran with a limit. The streaming join's clock starts after its
// set-up, when streaming starts; a blocking join's starts before its
// partition and build (see skewjoin.StreamStats).
type StreamInfo struct {
	// FirstResultMS is the time from the milestone clock's start to the
	// first staged result (0 when the join output is empty).
	FirstResultMS float64 `json:"first_result_ms"`
	// LimitMS is the time from the milestone clock's start until the
	// request's limit was reached (0 when no limit was set or it was
	// never reached).
	LimitMS float64 `json:"limit_ms,omitempty"`
	// LimitHit reports the join stopped early at the requested limit;
	// matches/checksum then digest a partial prefix of the join.
	LimitHit bool `json:"limit_hit,omitempty"`
	// Staged is the number of results staged when the run ended.
	Staged uint64 `json:"staged"`
	// Chunks is the number of streamed input chunks processed (streaming
	// operator only).
	Chunks int `json:"chunks,omitempty"`
}

// KeyWeight is one heavy-hitter entry of a "topk" consumer.
type KeyWeight struct {
	Key    uint32 `json:"key"`
	Weight uint64 `json:"weight"`
}

// JoinPhaseInfo reports the CPU join phase's internals for one request:
// task counts, skew symptoms, and the build/probe CPU-time split (summed
// across workers, so it can exceed the phase wall-clock). Present for the
// CPU hash joins only.
type JoinPhaseInfo struct {
	Tasks       int     `json:"tasks"`
	SplitTasks  int     `json:"split_tasks"`
	MaxChain    int     `json:"max_chain"`
	ProbeVisits uint64  `json:"probe_visits"`
	BuildMS     float64 `json:"build_ms"`
	ProbeMS     float64 `json:"probe_ms"`
}

// SplitInfo reports how a backend:"split" request distributed its work
// across the two backends, with the cost model's prediction next to what
// actually happened. CPU times are host times, GPU times modelled device
// times (see the engine's SplitStats).
type SplitInfo struct {
	// Split is true when both backends ran; otherwise Degenerate names
	// the single backend the plan fell back to and DegenerateReason says
	// why the model declined to split ("hot-partition-dominates": one
	// partition's cost alone exceeded the balanced-makespan bound and
	// fragmentation was off or didn't pay; "min-win-threshold": the
	// predicted win fell under the win floor; "policy-pinned": the request
	// forced a single backend).
	Split            bool   `json:"split"`
	Degenerate       string `json:"degenerate,omitempty"`
	DegenerateReason string `json:"degenerate_reason,omitempty"`
	// CPUParts / GPUParts count the radix partitions placed on each side.
	CPUParts int `json:"cpu_parts"`
	GPUParts int `json:"gpu_parts"`
	// Fragmented reports the plan split the hottest partition itself:
	// its build side was replicated to both backends and its probe side
	// cut into CPUFragments + GPUFragments cost-proportional sub-ranges
	// (FragmentedPart is the partition's index).
	Fragmented     bool `json:"fragmented,omitempty"`
	FragmentedPart int  `json:"fragmented_part,omitempty"`
	CPUFragments   int  `json:"cpu_fragments,omitempty"`
	GPUFragments   int  `json:"gpu_fragments,omitempty"`
	// CPUJoinMS is the CPU side's per-worker busy time; GPUJoinMS /
	// GPUTransferMS the GPU side's modelled join and staging times.
	CPUJoinMS     float64 `json:"cpu_join_ms"`
	GPUJoinMS     float64 `json:"gpu_join_ms"`
	GPUTransferMS float64 `json:"gpu_transfer_ms"`
	// MakespanMS is partition + plan + max(cpu side, gpu side);
	// PredictedMakespanMS is the cost model's forecast of the join-phase
	// part of it.
	MakespanMS          float64 `json:"makespan_ms"`
	PredictedMakespanMS float64 `json:"predicted_makespan_ms"`
	// Imbalance is max(side)/min(side) when both backends ran, 0
	// otherwise.
	Imbalance float64 `json:"imbalance"`
}

// JoinResponse is the body of a successful POST /join.
type JoinResponse struct {
	Algorithm string       `json:"algorithm"`
	Auto      bool         `json:"auto"`
	Planner   *PlannerInfo `json:"planner,omitempty"`
	Matches   uint64       `json:"matches"`
	Checksum  uint64       `json:"checksum"`
	// Modelled is true when Phases are simulated GPU device time rather
	// than wall-clock.
	Modelled bool        `json:"modelled"`
	Phases   []PhaseInfo `json:"phases"`
	// WaitMS is time spent queued in admission; JoinMS is wall-clock
	// execution time (also what the /stats histograms record).
	WaitMS float64 `json:"wait_ms"`
	JoinMS float64 `json:"join_ms"`
	// Rows is set by the "count" consumer; TopKeys by "topk"; Groups by
	// "groups" (exact per-key output counts, ascending key order).
	Rows    *uint64     `json:"rows,omitempty"`
	TopKeys []KeyWeight `json:"top_keys,omitempty"`
	Groups  []KeyWeight `json:"groups,omitempty"`
	// JoinPhase holds join-phase internals for the CPU hash joins (for
	// backend:"split", its CPU side).
	JoinPhase *JoinPhaseInfo `json:"join_phase,omitempty"`
	// Split holds the co-processing breakdown for backend:"split".
	Split *SplitInfo `json:"split,omitempty"`
	// Stream holds the incremental-delivery milestones (streaming
	// operator or limited blocking run).
	Stream *StreamInfo `json:"stream,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// AdmissionStats is the admission controller's counter snapshot. The
// counters reconcile: Submitted == Admitted + Rejected, and Rejected ==
// RejectedFull + RejectedTimeout.
type AdmissionStats struct {
	ThreadBudget int `json:"thread_budget"`
	MaxQueue     int `json:"max_queue"`
	// Gauges.
	ThreadsInUse int `json:"threads_in_use"`
	InFlight     int `json:"in_flight"`
	Queued       int `json:"queued"`
	// Monotonic counters.
	Submitted       uint64 `json:"submitted"`
	Admitted        uint64 `json:"admitted"`
	Rejected        uint64 `json:"rejected"`
	RejectedFull    uint64 `json:"rejected_full"`
	RejectedTimeout uint64 `json:"rejected_timeout"`
	Completed       uint64 `json:"completed"`
}

// HistBucket is one latency histogram bucket; LEMS is the bucket's upper
// bound in milliseconds, -1 for the overflow bucket.
type HistBucket struct {
	LEMS  float64 `json:"le_ms"`
	Count uint64  `json:"count"`
}

// JoinPhaseTotals aggregates join-phase internals across an algorithm's
// successful requests: cumulative task/visit counters and build/probe CPU
// time, plus the largest hash chain any request built. Only present for
// algorithms that report join-phase stats (the CPU hash joins).
type JoinPhaseTotals struct {
	Tasks       uint64  `json:"tasks"`
	SplitTasks  uint64  `json:"split_tasks"`
	MaxChain    int     `json:"max_chain"`
	ProbeVisits uint64  `json:"probe_visits"`
	BuildMS     float64 `json:"build_ms"`
	ProbeMS     float64 `json:"probe_ms"`
}

// FirstResultStats is the time-to-first-result histogram for the
// requests of one algorithm that reported the milestone (streaming runs
// and limited blocking runs). It is a separate histogram from the
// whole-join latency one: a streaming join's first result arrives orders
// of magnitude before its completion, and folding both into one
// distribution would hide exactly the metric the streaming operator
// exists to improve.
type FirstResultStats struct {
	Count   uint64       `json:"count"`
	TotalMS float64      `json:"total_ms"`
	MaxMS   float64      `json:"max_ms"`
	Buckets []HistBucket `json:"buckets"`
}

// AlgorithmStats is the cumulative per-algorithm service record: request
// counts, a wall-clock latency histogram over successful joins, and
// aggregated join-phase internals where the algorithm reports them.
type AlgorithmStats struct {
	Count     uint64           `json:"count"`
	Errors    uint64           `json:"errors"`
	TotalMS   float64          `json:"total_ms"`
	MaxMS     float64          `json:"max_ms"`
	Buckets   []HistBucket     `json:"buckets"`
	JoinPhase *JoinPhaseTotals `json:"join_phase,omitempty"`
	// FirstResult is the time-to-first-result histogram; omitted until a
	// request of this algorithm reports the milestone.
	FirstResult *FirstResultStats `json:"first_result,omitempty"`
	// LimitHits counts requests that terminated early at their limit.
	LimitHits uint64 `json:"limit_hits,omitempty"`
}

// SplitTotals aggregates co-processing behaviour across every successful
// backend:"split" request: how often the plan genuinely split versus
// degenerated, the cumulative per-backend join-side times, and how well
// balanced and well predicted the splits were.
type SplitTotals struct {
	Requests      uint64 `json:"requests"`
	SplitRuns     uint64 `json:"split_runs"`
	DegenerateCPU uint64 `json:"degenerate_cpu"`
	DegenerateGPU uint64 `json:"degenerate_gpu"`
	// FragmentedRuns counts split runs whose plan fragmented the hottest
	// partition across both backends; CPUFragments / GPUFragments are the
	// cumulative per-backend probe sub-range counts those runs executed.
	FragmentedRuns uint64 `json:"fragmented_runs,omitempty"`
	CPUFragments   uint64 `json:"cpu_fragments,omitempty"`
	GPUFragments   uint64 `json:"gpu_fragments,omitempty"`
	// Cumulative per-backend join-side times (CPU busy / GPU modelled).
	CPUJoinMS     float64 `json:"cpu_join_ms"`
	GPUJoinMS     float64 `json:"gpu_join_ms"`
	GPUTransferMS float64 `json:"gpu_transfer_ms"`
	// Cumulative actual and predicted join-side makespans (excluding
	// partition and plan time, unlike the per-request MakespanMS, so
	// the ratio is apples-to-apples with the model's forecast), for
	// fleet-level model accuracy: PredictedMakespanMS/MakespanMS near
	// 1.0 means the cost model is honest.
	MakespanMS          float64 `json:"makespan_ms"`
	PredictedMakespanMS float64 `json:"predicted_makespan_ms"`
	// MaxImbalance is the worst max(side)/min(side) any split run saw.
	MaxImbalance float64 `json:"max_imbalance"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Relations  []RelationInfo            `json:"relations"`
	Admission  AdmissionStats            `json:"admission"`
	Algorithms map[string]AlgorithmStats `json:"algorithms"`
	// Split aggregates backend:"split" requests; omitted until one runs.
	Split    *SplitTotals `json:"split,omitempty"`
	UptimeMS float64      `json:"uptime_ms"`
}
