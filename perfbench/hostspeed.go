package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a shared virtual machine whose speed changes under
// it in two ways, and it corrects its timing metrics for both.
//
// Other guests steal CPU time. /proc/stat counts it, and wall times are
// taken on the unstolen clock (see stealMark).
//
// Busy neighbours on the same physical cores and caches slow every
// workload too: on the unstolen clock, the same code's median round trip
// still spread by 25–35% over ten runs taken within an hour, and CPU time
// per join, which steal does not touch, with it. No counter shows this, so
// the benchmark measures it. It owns a small
// hash join, refKernel, in which no code of the repository runs: a change
// to the program cannot change its time, a change in the host's speed
// does. The kernel runs after every timed request and is timed on its
// threads' CPU clocks. They count neither steal, which the guest kernel
// accounts apart, nor time a thread waited while the program's goroutines
// or collector ran. Timing metrics are reported at the kernel's nominal
// speed: divided by the run's median kernel CPU time over refNominalCPU.
// A run on a slowed host then reads as one on a quiet host, and a faster
// program still reads faster by all of its gain.

// refNominalCPU is the kernel's CPU time, summed over its threads, on the
// quiet 2-vCPU reference host (Xeon, 2.1 GHz). It sets the scale the
// timing metrics are reported in; any fixed value would do.
const refNominalCPU = 5 * time.Millisecond

// refWorkers is the kernel's thread count: two, as the workloads' joins
// use both vCPUs, so that both vCPUs' speed is sampled.
const refWorkers = 2

// refKernel is one worker's share of the kernel: radix-scatter its keys
// into 64 partitions, build an open-addressing hash table from the
// scattered keys and probe it with every key. Each worker's 2 MiB matches
// one core's L2, so the kernel depends on the caches and memory as a
// partitioned hash join does.
type refKernel struct {
	keys, out []uint64
	table     []uint64
	// found, cpu and err are the last run's result, set by its thread.
	found int
	cpu   time.Duration
	err   error
}

const (
	refKeys     = 1 << 16
	refSlots    = 2 * refKeys
	refPartBits = 6
)

func newRefKernel(seed uint64) *refKernel {
	k := &refKernel{keys: make([]uint64, refKeys), out: make([]uint64, refKeys), table: make([]uint64, refSlots)}
	x := seed
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.keys[i] = x | 1 // 0 marks an empty slot
	}
	return k
}

// run does the kernel's work once and returns the number of probes that
// found their key, which is every key.
func (k *refKernel) run() int {
	var hist, next [1 << refPartBits]int
	for _, key := range k.keys {
		hist[(key*0x9E3779B97F4A7C15)>>(64-refPartBits)]++
	}
	sum := 0
	for p, h := range hist {
		next[p] = sum
		sum += h
	}
	for _, key := range k.keys {
		p := (key * 0x9E3779B97F4A7C15) >> (64 - refPartBits)
		k.out[next[p]] = key
		next[p]++
	}
	clear(k.table)
	mask := uint64(len(k.table) - 1)
	for _, key := range k.out {
		h := (key * 0xff51afd7ed558ccd) & mask
		for k.table[h] != 0 {
			h = (h + 1) & mask
		}
		k.table[h] = key
	}
	found := 0
	for _, key := range k.keys {
		for h := (key * 0xff51afd7ed558ccd) & mask; k.table[h] != 0; h = (h + 1) & mask {
			if k.table[h] == key {
				found++
				break
			}
		}
	}
	return found
}

// refKernels are the kernel's workers, one per thread.
type refKernels []*refKernel

func newRefKernels() refKernels {
	var ks refKernels
	for w := 0; w < refWorkers; w++ {
		ks = append(ks, newRefKernel(uint64(88172645463325252+w)))
	}
	return ks
}

// speedSamples are the kernel's CPU times in a run, summed over its
// threads, in nanoseconds.
type speedSamples []float64

// sample runs the kernel once on its threads, records its CPU time in
// into and returns it.
func (ks refKernels) sample(into *speedSamples) (time.Duration, error) {
	var wg sync.WaitGroup
	for _, k := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.timedRun()
		}()
	}
	wg.Wait()
	var total time.Duration
	for _, k := range ks {
		if k.err != nil {
			return 0, k.err
		}
		if k.found != refKeys {
			return 0, fmt.Errorf("reference kernel found %d of %d keys", k.found, refKeys)
		}
		total += k.cpu
	}
	*into = append(*into, float64(total))
	return total, nil
}

// timedRun runs the kernel on a thread of its own and times it on that
// thread's CPU clock.
func (k *refKernel) timedRun() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		k.err = err
		return
	}
	k.found = k.run()
	t1, err := threadCPU()
	k.cpu, k.err = t1-t0, err
}

// threadCPU reads the calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// slowdown is the median kernel CPU time over the nominal one: above 1 on
// a host slower than the reference, 1 when nothing was sampled.
func (s speedSamples) slowdown() float64 {
	if len(s) == 0 {
		return 1
	}
	return median(s) / float64(refNominalCPU)
}

// spread is the kernel's interquartile range over its median.
func (s speedSamples) spread() float64 {
	if len(s) < 4 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	return (quantile(v, 0.75) - quantile(v, 0.25)) / quantile(v, 0.5)
}

// stealMark is a reading of the machine's CPU time from /proc/stat: busy,
// the time its virtual CPUs ran work, and steal, the time the hypervisor
// ran other guests while they had work.
//
// Steal ranged from under 1% to 33% of the wanted CPU time between runs,
// and uniform's median round trip with it from 78 to 140 ms. So wall times
// are taken on the unstolen clock: wall time times the share of the CPU
// time wanted during it that was not stolen. At 26% steal that
// read 84/94 ms (p50/p90) for uniform against 79/88 ms at 0.8% steal,
// where the wall clock read 109/148 ms. The counters tick every 10 ms, so
// the share is taken over windows of many ticks (stealWindowLen in the
// timed loop, all set-ups together), never over a single request. The
// wall-clock figures are printed next to the metrics; without /proc/stat
// the clocks agree.
type stealMark struct {
	steal, busy uint64
	ok          bool
}

func markSteal() stealMark {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMark{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealMark{}
	}
	m := stealMark{ok: true}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return stealMark{}
		}
		switch i {
		case 3, 4: // idle and iowait: nothing wanted to run
		case 7:
			m.steal = n
		default:
			m.busy += n
		}
	}
	return m
}

// stealTicks sums the steal and busy ticks of several windows.
type stealTicks struct{ steal, busy uint64 }

// add counts the window from m to later; a window without readings, or
// whose counters went backwards, counts nothing.
func (t *stealTicks) add(m, later stealMark) {
	if !m.ok || !later.ok || later.steal < m.steal || later.busy < m.busy {
		return
	}
	t.steal += later.steal - m.steal
	t.busy += later.busy - m.busy
}

// unstolen returns the share of the CPU time wanted in the windows that
// the hypervisor did not steal (1 when no tick was counted).
func (t stealTicks) unstolen() float64 {
	if t.steal+t.busy == 0 {
		return 1
	}
	return float64(t.busy) / float64(t.steal+t.busy)
}

// stealWindowLen is the shortest window a request's steal share is taken
// over. The /proc/stat counters tick every 10 ms on each vCPU, so a window
// of 250 ms holds up to 50 ticks of a 2-vCPU machine: enough to follow
// steal that comes in bursts of seconds, which a share over the whole loop
// would spread over every request.
//
// Only the requests' own time counts, not the reference kernel's between
// them: the kernel keeps both vCPUs busy, while a request may run mostly
// on one.
const stealWindowLen = 250 * time.Millisecond

// stealWindow is the open window of the requests not yet given a share,
// with the ticks counted while they ran.
type stealWindow struct {
	ticks stealTicks
	start time.Time
}

// close gives every request of the window the window's unstolen share and
// opens the next window.
func (sw *stealWindow) close(st *loopStats) {
	for len(st.unstolen) < len(st.rtts) {
		st.unstolen = append(st.unstolen, sw.ticks.unstolen())
	}
	sw.ticks, sw.start = stealTicks{}, time.Now()
}
