// Streaming-join benchmark: the machine-readable artifact for the
// streaming symmetric hash join and its early-termination path.
// cmd/skewbench -exp stream runs it and can write BENCH_stream.json.
//
// Each cell runs one operator (the streaming symmetric join, the blocking
// Cbase control, or a second streaming run as the A/A noise yardstick) on
// one zipf workload under one limit, through the public skewjoin.Join API
// — the same path the service takes — and records the milestone clocks:
// time to first staged result, time to the limit, and total wall time.
// Limits are absolute row counts (the interactive regime the operator
// exists for: "show me the first N rows"), each cell also recording the
// fraction of the full output that limit amounts to; limit 0 is the
// no-limit parity run.
//
// The harness gates the tentpole claim: at small limits (≤1% of the
// output) the streaming operator must reach the limit at least
// streamGateRatio times sooner than the blocking control, which cannot
// emit anything until its build side is complete. Cells where the
// blocking control itself finishes under the noise floor are exempt —
// sub-millisecond ratios on a shared host are harness noise, and the A/A
// rows exist precisely to show how large that noise is. The no-limit
// rows check the other direction: on the skewed workloads a full
// streaming scan must stay within streamParityRatio of blocking (no
// partition pass, while the blocking join's hot chains hurt it just as
// much). The uniform full scan is reported but not gated: with no skew
// to amortise, the blocking join's radix partition buys cache locality
// the symmetric join's growing tables cannot match, and streaming
// measures 1.4–3.4x, depending on the host and thread count — that is
// the structural price of incremental delivery, not a regression to
// hide.
package bench

import (
	"fmt"
	"io"
	"time"

	"skewjoin"
	"skewjoin/internal/exec"
	"skewjoin/internal/outbuf"
)

// streamZipfs is the default skew sweep: uniform, the paper's high-skew
// point, and past it — the regime where the blocking control's build side
// is dominated by one chain and the streaming head start is largest.
var streamZipfs = []float64{0.0, 0.9, 1.1}

// streamLimits are the absolute early-termination bounds: three
// interactive sizes spanning two orders of magnitude, plus the no-limit
// parity run. Cells whose limit is ≤1% of the workload's output are the
// gated regime; at larger shares both operators are bounded by emission
// throughput and the build-phase head start washes out.
var streamLimits = []int{100, 1000, 10000, 0}

const (
	// streamGateRatio: at gated fractions the streaming operator must
	// reach the limit this many times sooner than the blocking control.
	streamGateRatio = 4.0
	// streamGateFraction bounds the gated regime (limit ≤ 1% of output).
	streamGateFraction = 0.01
	// streamGateFloorNs exempts cells whose blocking control reaches the
	// limit under 2ms: at that scale the ratio measures scheduler noise,
	// not operator structure (the smoke configuration lands here).
	streamGateFloorNs = 2e6
	// streamParityRatio bounds the no-limit regression: a full streaming
	// scan may cost at most this multiple of the blocking control (plus
	// the same noise floor on the control's total).
	streamParityRatio = 1.10
	// streamParityMinZipf scopes the parity gate to the skewed cells. The
	// uniform full scan is reported but not gated (see the package
	// comment: the 1.4–3.4x there is the structural cost of skipping the
	// partition pass, which moves with the blocking join's speed, not a
	// regression signal).
	streamParityMinZipf = 0.5
)

// streamSweep runs the streaming operator under test, the blocking
// control and an independent second streaming run (the arms; Par is the
// algorithm) under every limit the workload's output exceeds (the
// groups). A limited run ranks by time-to-limit, a full run by total
// time.
func streamSweep(cfg Config, threads int) *Sweep {
	return &Sweep{
		Name: "stream", Zipfs: cfg.zipfs(streamZipfs),
		Arms: []Arm{{"ssj", skewjoin.SSJ}, {"cbase", skewjoin.Cbase}, {"ssj-aa", skewjoin.SSJ}},
		Twin: [2]string{"ssj", "ssj-aa"},
		Groups: func(w *Workload) ([]Group, error) {
			var gs []Group
			for _, limit := range streamLimits {
				switch {
				case limit == 0:
					gs = append(gs, Group{Label: "full join", Par: 0})
				case uint64(limit) < w.Expected.Count: // else the limit is never hit
					gs = append(gs, Group{Label: fmt.Sprintf("limit %d", limit), Par: limit})
				}
			}
			return gs, nil
		},
		Measure: func(w *Workload, g Group, a Arm) (Sample, error) {
			limit := g.Par.(int)
			start := time.Now()
			res, err := skewjoin.Join(a.Par.(skewjoin.Algorithm), w.R, w.S, &skewjoin.Options{Threads: threads, Limit: limit})
			if err != nil {
				return Sample{}, err
			}
			total := time.Since(start)
			sample := Sample{Clock: total, Out: &outbuf.Summary{Count: res.Matches, Checksum: res.Checksum}}
			metrics := []Metric{{Name: "limit", Value: limit}, {Name: "total_ns", Value: total.Nanoseconds()}}
			staged, st := res.Matches, res.Stream
			if limit > 0 {
				// A limited run digests a prefix: check its termination.
				if st == nil || !st.LimitHit || st.Staged < uint64(limit) || st.Staged > w.Expected.Count {
					return Sample{}, fmt.Errorf("bad termination (stream=%+v, output %d)", st, w.Expected.Count)
				}
				sample.Clock, sample.Out = time.Duration(st.LimitNs), nil
				metrics = append(metrics,
					Metric{Name: "fraction", Value: float64(limit) / float64(w.Expected.Count)},
					Metric{Name: "time_to_limit_ns", Value: st.LimitNs},
					Metric{Name: "limit_hit", Value: true})
			}
			if st != nil {
				staged = st.Staged
				metrics = append(metrics, Metric{Name: "time_to_first_ns", Value: st.FirstResultNs})
			}
			sample.Metrics = append(metrics, Metric{Name: "staged", Value: staged})
			return sample, nil
		},
		Gate:   streamGate,
		Config: map[string]any{"threads": threads, "limits": streamLimits},
		Print:  printStream,
	}
}

// StreamBench measures time-to-first-result and time-to-limit across
// zipf, limit fraction and operator.
func StreamBench(cfg Config) (*Artifact, error) {
	threads := cfg.Threads
	if threads <= 0 {
		threads = exec.DefaultThreads()
	}
	return Run(cfg, streamSweep(cfg, threads))
}

// streamGate gates one (zipf, limit) group: small-limit time-to-limit
// superiority and no-limit parity, both subject to the noise floor on the
// blocking control. Each cell's best run is ranked by the clock its
// regime gates on: time-to-limit when limited, total when full.
func streamGate(group []Cell) []string {
	ssj, cbase := streamPair(group)
	if ssj == nil || cbase == nil || ssj.BestNS == 0 || cbase.BestNS == 0 {
		return nil
	}
	limit := ssj.num("limit")
	if limit > 0 && ssj.num("fraction") <= streamGateFraction && cbase.BestNS >= streamGateFloorNs &&
		float64(cbase.BestNS) < streamGateRatio*float64(ssj.BestNS) {
		return []string{fmt.Sprintf(
			"limit=%.0f @ zipf %.2f: streaming time-to-limit %s is not %.0fx ahead of blocking %s",
			limit, ssj.Zipf, FormatDuration(time.Duration(ssj.BestNS)), streamGateRatio,
			FormatDuration(time.Duration(cbase.BestNS)))}
	}
	if limit == 0 && ssj.Zipf >= streamParityMinZipf && cbase.BestNS >= streamGateFloorNs &&
		float64(ssj.BestNS) > streamParityRatio*float64(cbase.BestNS)+streamGateFloorNs {
		return []string{fmt.Sprintf(
			"full scan @ zipf %.2f: streaming total %s exceeds %.0f%% of blocking %s",
			ssj.Zipf, FormatDuration(time.Duration(ssj.BestNS)), streamParityRatio*100,
			FormatDuration(time.Duration(cbase.BestNS)))}
	}
	return nil
}

// streamPair picks the streaming operator's and the blocking control's
// cells out of one (zipf, limit) group; either is nil when absent.
func streamPair(group []Cell) (ssj, cbase *Cell) {
	for i := range group {
		switch group[i].Arm {
		case "ssj":
			ssj = &group[i]
		case "cbase":
			cbase = &group[i]
		}
	}
	return ssj, cbase
}

// printStream renders one block per (zipf, limit) group, one line per
// operator with the milestone clocks. A limited group ends with the
// blocking-over-streaming ratio on both clocks: time-to-limit, which the
// gate reads, and the caller's wall clock (total), which also counts
// SSJ's set-up before its milestone clock starts.
func printStream(w io.Writer, a *Artifact) {
	fmt.Fprintf(w, "== streaming symmetric join benchmark (n=%v, threads=%v, best of %v) ==\n",
		a.Config["tuples"], a.Config["threads"], a.Config["repeats"])
	fmt.Fprintf(w, "gate: at limits <=%.0f%% of output, streaming time-to-limit must lead blocking by %.0fx\n",
		streamGateFraction*100, streamGateRatio)
	for i := 0; i < len(a.Cells); i += len(a.sweep.Arms) {
		group := a.Cells[i : i+len(a.sweep.Arms)]
		limited := group[0].Group != "full join"
		if limited {
			fmt.Fprintf(w, "-- zipf %.2f, %s (%.3f%% of output) --\n", group[0].Zipf, group[0].Group, group[0].num("fraction")*100)
		} else {
			fmt.Fprintf(w, "-- zipf %.2f, full join --\n", group[0].Zipf)
		}
		for _, c := range group {
			clocks := fmt.Sprintf("first %10s  total %10s", ns(c.num("time_to_first_ns")), ns(c.num("total_ns")))
			if limited {
				clocks = fmt.Sprintf("first %10s  to-limit %10s  total %10s",
					ns(c.num("time_to_first_ns")), ns(c.num("time_to_limit_ns")), ns(c.num("total_ns")))
			}
			fmt.Fprintf(w, "%-7s %s  staged %.0f\n", c.Arm, clocks, c.num("staged"))
		}
		if ssj, cbase := streamPair(group); limited && ssj.BestNS > 0 && ssj.num("total_ns") > 0 {
			fmt.Fprintf(w, "cbase/ssj  to-limit %.1fx  total %.1fx\n",
				float64(cbase.BestNS)/float64(ssj.BestNS), cbase.num("total_ns")/ssj.num("total_ns"))
		}
	}
}
