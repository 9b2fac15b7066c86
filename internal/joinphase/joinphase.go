// Package joinphase implements the task-queue join phase shared by Cbase
// and by CSH's NM-join (§IV-A step 4: "CSH can efficiently join each pair
// of normal partitions... Our implementation parallelizes all the phases
// with multiple CPU threads in the similar fashion as Cbase").
//
// Every non-empty (R partition, S partition) pair becomes a join task in a
// dynamic queue. A worker dequeues a task, builds a hash table over the R
// partition, and probes it with the S partition. Cbase's skew handling is
// included: a task whose S side is much larger than average is broken up —
// the table is built once and the S side is re-enqueued as smaller probe
// sub-tasks.
//
// The build table is chainedtable.CompactTable: each bucket is one
// contiguous run, so a probe scans its key's bucket sequentially. Its
// buckets are exactly the paper's chains (same hash, same members), so
// visit counts and the longest bucket — Stats.ProbeVisits and MaxChain,
// the §III symptoms — are the ones a chained table would report. A probe
// takes its key's bucket (CompactTable.Bucket) and hands it to the
// worker's output buffer (outbuf.Buffer.PushMatches), which compares every
// entry and writes each match straight into the ring: one pass over the
// bucket, as the paper's Cbase writes each result as its chain walk finds
// it.
//
// Build scratch is recycled through a per-worker chainedtable.Arena, so
// after the first few tasks grow each worker's arena the steady-state join
// phase allocates nothing per task. Tables handed to probe sub-tasks
// escape their worker and are detached from the arena first.
package joinphase

import (
	"context"
	"time"

	"skewjoin/internal/chainedtable"
	"skewjoin/internal/exec"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/relation"
)

// Config tunes the join phase.
type Config struct {
	// Threads is the number of workers draining the task queue.
	Threads int
	// SkewFactor: a task whose S partition exceeds both SkewFactor times
	// the average S partition size and the average itself is split into
	// probe sub-tasks of average size. <= 0 disables splitting.
	SkewFactor float64
	// Ctx optionally cancels the phase between join tasks (nil = never).
	// A cancelled run reports Stats.Canceled and its output is partial.
	Ctx context.Context
	// Parts optionally restricts the phase to the listed partition
	// indices (nil = every partition, unless Ranges is set). The
	// co-processing executor uses it to join only the CPU-assigned
	// partitions while the rest run on the simulated GPU. Indices must be
	// valid and duplicate-free; empty partitions in the list are skipped
	// as usual.
	Parts []int
	// Ranges optionally adds probe-restricted tasks: each entry joins the
	// full R partition against only S[Lo:Hi) of that partition. The
	// co-processing executor uses it for a fragmented hot partition — the
	// build side is replicated here while the rest of the probe side runs
	// on the simulated GPU. Ranges must not overlap Parts entries. When
	// Ranges is set and Parts is nil, only the listed ranges run.
	Ranges []ProbeRange
}

// ProbeRange restricts one partition's join to the probe tuples [Lo, Hi).
type ProbeRange struct {
	Part, Lo, Hi int
}

// Stats reports what happened inside the join phase. BuildNs and ProbeNs
// are CPU busy time: each worker's build and probe wall time, capped at
// the CPU time its thread consumed over the drain.
type Stats struct {
	Tasks         int    // join tasks drained, including probe sub-tasks
	SplitTasks    int    // oversized tasks that were broken up
	MaxChain      int    // longest hash chain / largest bucket across all build tables
	ProbeVisits   uint64 // total bucket entries visited while probing
	MaxTaskOutput uint64 // results produced by the single largest task
	BuildNs       int64  // busy ns spent building tables, summed across workers
	ProbeNs       int64  // busy ns spent probing, summed across workers
	Canceled      bool   // Config.Ctx fired before the queue drained
}

type task struct {
	part   int                        // partition index; -1 for a probe sub-task
	lo, hi int                        // probe-range restriction when hi > lo
	table  *chainedtable.CompactTable // pre-built R table for probe sub-tasks
	sPart  []relation.Tuple           // S tuples to probe for probe sub-tasks
}

// worker holds one thread's output buffer, build arena and stat
// counters.
type worker struct {
	buf   *outbuf.Buffer
	arena *chainedtable.Arena

	maxChain      int
	probeVisits   uint64
	maxTaskOutput uint64
	splits        int
	buildNs       int64 // wall ns in builds; leave caps build+probe
	probeNs       int64 // wall ns in probes; leave caps build+probe
	cpu0          int64 // thread CPU clock when the worker entered the drain
}

// threadCPUNs is the per-thread CPU clock a worker reads when it enters
// and when it leaves the drain; a variable so a test can count the reads.
var threadCPUNs = exec.ThreadCPUNs

// monoEpoch anchors monoNs. time.Since on a time.Now value reads only the
// monotonic clock, one vDSO call, against the thread CPU clock's syscall.
var monoEpoch = time.Now()

// monoNs reads the monotonic clock a task's build and probe windows are
// timed with.
func monoNs() int64 { return int64(time.Since(monoEpoch)) }

// enter starts the worker's drain: it reads the thread CPU clock, which
// leave reads again.
func (w *worker) enter() { w.cpu0 = threadCPUNs() }

// leave ends the worker's drain. Its tasks' build and probe windows were
// timed on the monotonic clock, which also counts time slices other
// threads took from this one; the thread CPU clock over the drain does
// not, but it also counts the queue, the idle back-off and the clock
// reads. The worker reports the smaller of the two as its busy time, split
// between build and probe in proportion to their wall times, so BuildNs +
// ProbeNs never exceeds the CPU time the worker's thread consumed.
func (w *worker) leave() {
	cpu := threadCPUNs() - w.cpu0
	busy := w.buildNs + w.probeNs
	if busy <= cpu {
		return
	}
	w.buildNs = int64(float64(cpu) * float64(w.buildNs) / float64(busy))
	w.probeNs = cpu - w.buildNs
}

// probe probes sSide one tuple at a time: each tuple's bucket counts
// whole towards the visits, and PushMatches compares its keys and writes
// the matches straight into the ring, in one pass.
//
//skewlint:hotpath
func (w *worker) probe(table *chainedtable.CompactTable, sSide []relation.Tuple) {
	buf := w.buf
	visits := uint64(0)
	for _, ts := range sSide {
		bucket := table.Bucket(ts.Key)
		visits += uint64(len(bucket))
		buf.PushMatches(ts.Key, bucket, ts.Payload)
	}
	w.probeVisits += visits
}

// runner carries the per-phase constants every task shares.
type runner struct {
	pr, ps         *radix.Partitioned
	avg            int
	splitThreshold int
	q              *exec.Queue[task]
}

// doTask executes one join task on worker w: build (arena-recycled, timed),
// split if oversized, probe (timed). Deliberately not a lint hot path —
// the phase timers live here, bracketing the marked helpers that are.
// A task reads only the monotonic clock: once when it starts, once when
// its build ends and the probe window (split included) begins, and once
// when its probe ends. The thread CPU clock, a syscall, is read once per
// worker at each end of its drain (enter, leave), which caps the summed
// windows at the CPU time the thread consumed: on an oversubscribed host
// (co-processing runs the simulated GPU beside the CPU workers) wall
// windows absorb other threads' time slices and would inflate the busy
// time the cost model calibrates against.
func (r *runner) doTask(w *worker, t task) {
	var table *chainedtable.CompactTable
	var sSide []relation.Tuple

	start := monoNs()
	if t.part >= 0 {
		table = w.arena.Build(r.pr.Part(t.part))
		built := monoNs()
		w.buildNs += built - start
		start = built
		if mc := table.MaxChain(); mc > w.maxChain {
			w.maxChain = mc
		}
		sPart := r.ps.Part(t.part)
		if t.hi > t.lo {
			// Probe-range task: the replicated build probes only its
			// fragment of S. The oversized-split below still applies, so a
			// large fragment fans out into sub-tasks sharing one table.
			sPart = sPart[t.lo:t.hi]
		}
		if r.splitThreshold > 0 && len(sPart) > r.splitThreshold {
			w.splits++
			// The table escapes to whichever workers drain the sub-tasks;
			// detach it so the arena's next build cannot clobber it.
			w.arena.Detach()
			for lo := r.avg; lo < len(sPart); lo += r.avg {
				hi := lo + r.avg
				if hi > len(sPart) {
					hi = len(sPart)
				}
				r.q.Push(task{part: -1, table: table, sPart: sPart[lo:hi]})
			}
			sSide = sPart[:r.avg]
		} else {
			sSide = sPart
		}
	} else {
		table = t.table
		sSide = t.sPart
	}

	before := w.buf.Count()
	w.probe(table, sSide)
	w.probeNs += monoNs() - start
	if out := w.buf.Count() - before; out > w.maxTaskOutput {
		w.maxTaskOutput = out
	}
}

// Run joins every partition pair of pr and ps, emitting results into the
// per-worker buffers bufs (len must be >= cfg.Threads).
func Run(pr, ps *radix.Partitioned, cfg Config, bufs []*outbuf.Buffer) Stats {
	if cfg.Threads <= 0 {
		cfg.Threads = exec.DefaultThreads()
	}
	fanout := pr.Fanout()
	avg := 1
	if fanout > 0 {
		avg = (ps.Total() + fanout - 1) / fanout
		if avg == 0 {
			avg = 1
		}
	}
	splitThreshold := 0
	if cfg.SkewFactor > 0 {
		// A split keeps the first avg S tuples, so a side of avg or fewer
		// has nothing to split off, whatever the factor.
		splitThreshold = max(int(cfg.SkewFactor*float64(avg)), avg)
	}

	parts := cfg.Parts
	if parts == nil && cfg.Ranges == nil {
		parts = make([]int, fanout)
		for p := range parts {
			parts[p] = p
		}
	}
	tasks := make([]task, 0, len(parts)+len(cfg.Ranges))
	for _, p := range parts {
		if pr.Size(p) == 0 || ps.Size(p) == 0 {
			continue
		}
		tasks = append(tasks, task{part: p})
	}
	for _, pr2 := range cfg.Ranges {
		if pr.Size(pr2.Part) == 0 || pr2.Hi <= pr2.Lo {
			continue
		}
		tasks = append(tasks, task{part: pr2.Part, lo: pr2.Lo, hi: pr2.Hi})
	}
	q := exec.NewQueue(tasks)
	r := &runner{
		pr: pr, ps: ps,
		avg: avg, splitThreshold: splitThreshold,
		q: q,
	}
	ws := make([]worker, cfg.Threads)
	for i := range ws {
		w := &ws[i]
		w.buf = bufs[i]
		w.arena = &chainedtable.Arena{}
	}

	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background() // no done channel: the drain never stops early
	}
	drainErr := q.DrainHooked(ctx, cfg.Threads, exec.WorkerHooks{
		Enter: func(wi int) { ws[wi].enter() },
		Leave: func(wi int) { ws[wi].leave() },
	}, func(wi int, t task) { r.doTask(&ws[wi], t) })

	var st Stats
	st.Canceled = drainErr != nil
	st.Tasks = q.Len()
	for i := range ws {
		w := &ws[i]
		if w.maxChain > st.MaxChain {
			st.MaxChain = w.maxChain
		}
		st.ProbeVisits += w.probeVisits
		if w.maxTaskOutput > st.MaxTaskOutput {
			st.MaxTaskOutput = w.maxTaskOutput
		}
		st.SplitTasks += w.splits
		st.BuildNs += w.buildNs
		st.ProbeNs += w.probeNs
	}
	return st
}
