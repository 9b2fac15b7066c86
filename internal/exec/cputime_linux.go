//go:build linux

package exec

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>: the
// calling thread's consumed CPU time, which does not advance while the
// thread is descheduled.
const clockThreadCPUTimeID = 3

// ThreadCPUNs returns the calling OS thread's consumed CPU time in
// nanoseconds. Deltas of this clock measure work the thread itself did,
// excluding time slices stolen by other goroutines' threads — which is
// what the co-processing cost model needs on an oversubscribed host,
// where CPU join workers and the simulated GPU's host goroutine
// time-share cores. Callers taking deltas must hold the goroutine on one thread
// (runtime.LockOSThread); the exec worker pools do.
func ThreadCPUNs() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// clock_gettime on a vDSO-less or restricted host: fall back to
		// wall time rather than report zero busy-time.
		return int64(time.Since(cpuClockEpoch))
	}
	return ts.Sec*1e9 + int64(ts.Nsec)
}

// cpuClockEpoch anchors the wall-clock fallback; only deltas are
// meaningful, matching the thread-CPU clock's contract.
var cpuClockEpoch = time.Now()
