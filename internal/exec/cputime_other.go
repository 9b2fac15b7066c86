//go:build !linux

package exec

import "time"

// ThreadCPUNs falls back to monotonic wall time on platforms without a
// portable thread CPU clock. Only deltas are meaningful.
func ThreadCPUNs() int64 { return int64(time.Since(cpuClockEpoch)) }

// cpuClockEpoch anchors the fallback clock.
var cpuClockEpoch = time.Now()
