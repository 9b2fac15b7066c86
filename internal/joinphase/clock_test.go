package joinphase

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"skewjoin/internal/exec"
	"skewjoin/internal/oracle"
	"skewjoin/internal/outbuf"
	"skewjoin/internal/radix"
	"skewjoin/internal/zipf"
)

// clockCounter wraps exec.ThreadCPUNs, counting its reads and pairing each
// goroutine's two reads (drain entry and exit) into one span.
type clockCounter struct {
	mu    sync.Mutex
	reads int
	open  map[uint64]int64 // goroutine id -> its entry reading
	spans int              // closed entry/exit pairs
	cpuNs int64            // summed exit − entry over the closed pairs
}

func (c *clockCounter) read() int64 {
	v := exec.ThreadCPUNs()
	id := goroutineID()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	if v0, ok := c.open[id]; ok {
		delete(c.open, id)
		c.spans++
		c.cpuNs += v - v0
	} else {
		c.open[id] = v
	}
	return v
}

// goroutineID parses the calling goroutine's id from its stack header,
// "goroutine 17 [running]:".
func goroutineID() uint64 {
	var b [64]byte
	f := bytes.Fields(b[:runtime.Stack(b[:], false)])
	id, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestClockReadsPerWorkerNotPerTask pins the join phase's clock cost: a
// Run reads the thread CPU clock once when each worker enters the drain
// and once when it leaves, whatever the task count, and the busy time it
// reports never exceeds the CPU time those reads bracket. The input makes
// over a thousand tasks, split probe sub-tasks among them, plus one probe
// range: every partition but the hottest runs whole, and the hottest runs
// as a range over its full S side, so the union is the full join.
func TestClockReadsPerWorkerNotPerTask(t *testing.T) {
	const n = 1 << 14
	g := zipf.MustNew(zipf.Config{Theta: 1.0, Universe: n, Seed: 11})
	r, s := g.Pair(n)
	want := oracle.Expected(r, s)
	rcfg := radix.Config{Threads: 2, Bits1: 6, Bits2: 5}
	pr := radix.Partition(r.Tuples, rcfg, nil)
	ps := radix.Partition(s.Tuples, rcfg, nil)
	hot, hotSize := ps.MaxPartition()
	var parts []int
	for p := 0; p < pr.Fanout(); p++ {
		if p != hot {
			parts = append(parts, p)
		}
	}

	t.Cleanup(func() { threadCPUNs = exec.ThreadCPUNs })
	for _, threads := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			c := &clockCounter{open: map[uint64]int64{}}
			threadCPUNs = c.read
			bufs := make([]*outbuf.Buffer, threads)
			for i := range bufs {
				bufs[i] = outbuf.New(0)
			}
			st := Run(pr, ps, Config{
				Threads:    threads,
				SkewFactor: 4,
				Parts:      parts,
				Ranges:     []ProbeRange{{Part: hot, Lo: 0, Hi: hotSize}},
			}, bufs)
			threadCPUNs = exec.ThreadCPUNs

			if got := outbuf.Summarize(bufs); got != want {
				t.Fatalf("summary %+v, oracle %+v", got, want)
			}
			if st.Tasks < 1000 || st.SplitTasks == 0 {
				t.Fatalf("%d tasks with %d splits; want 1000+ tasks and some splits", st.Tasks, st.SplitTasks)
			}
			if c.reads != 2*threads || c.spans != threads || len(c.open) != 0 {
				t.Errorf("%d thread-clock reads (%d entry/exit pairs, %d unpaired) over %d tasks; want %d, two per worker",
					c.reads, c.spans, len(c.open), st.Tasks, 2*threads)
			}
			if st.BuildNs <= 0 || st.ProbeNs <= 0 {
				t.Errorf("BuildNs=%d ProbeNs=%d, want both positive", st.BuildNs, st.ProbeNs)
			}
			if busy := st.BuildNs + st.ProbeNs; busy > c.cpuNs {
				t.Errorf("BuildNs+ProbeNs = %d ns exceeds the workers' %d ns of thread CPU time over their drains", busy, c.cpuNs)
			}
		})
	}
}
