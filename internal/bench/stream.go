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
// streaming scan must stay within streamParityRatio of blocking (it is
// in fact faster there — no partition pass, and the blocking join's hot
// chains hurt it just as much). The uniform full scan is reported but
// not gated: with no skew to amortise, the blocking join's radix
// partition buys cache locality the symmetric join's growing tables
// cannot match, and streaming measures ~1.4x — that is the structural
// price of incremental delivery, not a regression to hide.
package bench

import (
	"fmt"
	"io"
	"time"

	"skewjoin"
	"skewjoin/internal/exec"
)

// StreamCell is one measured (zipf, limit, operator) combination, best of
// the repeat runs by the clock that matters for its regime (time-to-limit
// for limited cells, total time for full runs).
type StreamCell struct {
	Zipf     float64 `json:"zipf"`
	Operator string  `json:"operator"`
	// Limit is the absolute early-termination bound (0 = full join);
	// Fraction is the share of the workload's full output it amounts to.
	Limit    int     `json:"limit"`
	Fraction float64 `json:"fraction"`
	// Milestone clocks, nanoseconds. TimeToLimitNS is 0 for full runs.
	TimeToFirstNS int64 `json:"time_to_first_ns"`
	TimeToLimitNS int64 `json:"time_to_limit_ns,omitempty"`
	TotalNS       int64 `json:"total_ns"`
	// Staged is the number of results delivered; LimitHit reports early
	// termination.
	Staged   uint64 `json:"staged"`
	LimitHit bool   `json:"limit_hit,omitempty"`
}

// StreamReport is the full streaming benchmark: the committed
// BENCH_stream.json is exactly this structure.
type StreamReport struct {
	Tuples  int          `json:"tuples"`
	Seed    int64        `json:"seed"`
	Threads int          `json:"threads"`
	Repeats int          `json:"repeats"`
	Zipfs   []float64    `json:"zipfs"`
	Limits  []int        `json:"limits"`
	Cells   []StreamCell `json:"cells"`
	Errors  []string     `json:"errors,omitempty"`
}

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

// streamOperators: the streaming operator under test, the blocking
// control, and an independent second streaming run (A/A) whose ratio to
// the first is the run-to-run noise any gated ratio must be read against.
var streamOperators = []struct {
	name string
	alg  skewjoin.Algorithm
}{
	{"ssj", skewjoin.SSJ},
	{"cbase", skewjoin.Cbase},
	{"ssj-aa", skewjoin.SSJ},
}

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
	// comment: the ~1.4x there is the structural cost of skipping the
	// partition pass, constant across commits, not a regression signal).
	streamParityMinZipf = 0.5
)

// StreamBench measures time-to-first-result and time-to-limit across
// zipf, limit fraction and operator.
func StreamBench(cfg Config) (*StreamReport, error) {
	zipfs := streamZipfs
	if len(cfg.Zipfs) > 0 && len(cfg.Zipfs) != 11 {
		zipfs = cfg.Zipfs
	}
	cfg = cfg.Defaults()
	threads := cfg.Threads
	if threads <= 0 {
		threads = exec.DefaultThreads()
	}
	rep := &StreamReport{
		Tuples:  cfg.Tuples,
		Seed:    cfg.Seed,
		Threads: threads,
		Repeats: cfg.Repeats,
		Zipfs:   zipfs,
		Limits:  streamLimits,
	}
	for _, z := range zipfs {
		w, err := MakeWorkload(cfg.Tuples, z, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, limit := range streamLimits {
			if limit > 0 && uint64(limit) >= w.Expected.Count {
				// The limit would never be hit; nothing to measure.
				continue
			}
			frac := 0.0
			if limit > 0 {
				frac = float64(limit) / float64(w.Expected.Count)
			}
			group := make([]StreamCell, 0, len(streamOperators))
			for _, op := range streamOperators {
				cell, err := streamCell(w, op.name, op.alg, limit, frac, threads, cfg.Repeats, rep)
				if err != nil {
					return nil, err
				}
				group = append(group, cell)
			}
			checkStreamGroup(group, rep)
			rep.Cells = append(rep.Cells, group...)
		}
	}
	return rep, nil
}

// streamCell measures one (workload, operator, limit) cell, keeping the
// repeat with the best regime clock, and verifies every run: full runs
// against the oracle digest, limited runs for a hit at or above the
// limit.
func streamCell(w Workload, name string, alg skewjoin.Algorithm, limit int, frac float64,
	threads, repeats int, rep *StreamReport) (StreamCell, error) {
	cell := StreamCell{Zipf: w.Theta, Operator: name, Limit: limit, Fraction: frac}
	for it := 0; it < repeats; it++ {
		start := time.Now()
		res, err := skewjoin.Join(alg, w.R, w.S, &skewjoin.Options{Threads: threads, Limit: limit})
		if err != nil {
			return cell, fmt.Errorf("%s limit=%d @ zipf %.2f: %v", name, limit, w.Theta, err)
		}
		total := time.Since(start)
		if limit == 0 {
			if got := res.Summary(); got.Matches != w.Expected.Count || got.Checksum != w.Expected.Checksum {
				rep.Errors = append(rep.Errors, fmt.Sprintf(
					"%s full @ zipf %.2f: output %+v, expected %+v", name, w.Theta, got, w.Expected))
				continue
			}
		} else {
			st := res.Stream
			if st == nil || !st.LimitHit || st.Staged < uint64(limit) || st.Staged > w.Expected.Count {
				rep.Errors = append(rep.Errors, fmt.Sprintf(
					"%s limit=%d @ zipf %.2f: bad termination (stream=%+v, output %d)",
					name, limit, w.Theta, st, w.Expected.Count))
				continue
			}
		}
		better := cell.TotalNS == 0 || int64(total) < cell.TotalNS
		if limit > 0 {
			better = cell.TimeToLimitNS == 0 || res.Stream.LimitNs < cell.TimeToLimitNS
		}
		if better {
			cell.TotalNS = int64(total)
			cell.Staged = res.Matches
			if st := res.Stream; st != nil {
				cell.TimeToFirstNS = st.FirstResultNs
				cell.TimeToLimitNS = st.LimitNs
				cell.LimitHit = st.LimitHit
				cell.Staged = st.Staged
			}
		}
	}
	return cell, nil
}

// checkStreamGroup gates one (zipf, fraction) group: small-limit
// time-to-limit superiority and no-limit parity, both subject to the
// noise floor on the blocking control.
func checkStreamGroup(group []StreamCell, rep *StreamReport) {
	ssj, cbase := streamPair(group)
	if ssj == nil || cbase == nil {
		return
	}
	if ssj.Limit > 0 && ssj.Fraction <= streamGateFraction {
		if cbase.TimeToLimitNS >= streamGateFloorNs && ssj.TimeToLimitNS > 0 &&
			float64(cbase.TimeToLimitNS) < streamGateRatio*float64(ssj.TimeToLimitNS) {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"limit=%d @ zipf %.2f: streaming time-to-limit %s is not %.0fx ahead of blocking %s",
				ssj.Limit, ssj.Zipf,
				FormatDuration(time.Duration(ssj.TimeToLimitNS)), streamGateRatio,
				FormatDuration(time.Duration(cbase.TimeToLimitNS))))
		}
	}
	if ssj.Limit == 0 && ssj.Zipf >= streamParityMinZipf && cbase.TotalNS >= streamGateFloorNs &&
		float64(ssj.TotalNS) > streamParityRatio*float64(cbase.TotalNS)+streamGateFloorNs {
		rep.Errors = append(rep.Errors, fmt.Sprintf(
			"full scan @ zipf %.2f: streaming total %s exceeds %.0f%% of blocking %s",
			ssj.Zipf,
			FormatDuration(time.Duration(ssj.TotalNS)), streamParityRatio*100,
			FormatDuration(time.Duration(cbase.TotalNS))))
	}
}

// streamPair picks the streaming operator's and the blocking control's
// cells out of one (zipf, limit) group; either is nil when absent.
func streamPair(group []StreamCell) (ssj, cbase *StreamCell) {
	for i := range group {
		switch group[i].Operator {
		case "ssj":
			ssj = &group[i]
		case "cbase":
			cbase = &group[i]
		}
	}
	return ssj, cbase
}

// Fprint renders the report: one block per (zipf, fraction) group, one
// line per operator with the milestone clocks. A limited group ends with
// the blocking-over-streaming ratio on both clocks: time-to-limit, which
// the gate reads, and the caller's wall clock (total), which also counts
// SSJ's set-up before its milestone clock starts.
func (rep *StreamReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== streaming symmetric join benchmark (n=%d, threads=%d, best of %d) ==\n",
		rep.Tuples, rep.Threads, rep.Repeats)
	fmt.Fprintf(w, "gate: at limits <=%.0f%% of output, streaming time-to-limit must lead blocking by %.0fx\n",
		streamGateFraction*100, streamGateRatio)
	for _, z := range rep.Zipfs {
		for _, limit := range rep.Limits {
			var group []StreamCell
			for _, c := range rep.Cells {
				if c.Zipf == z && c.Limit == limit {
					group = append(group, c)
				}
			}
			if len(group) == 0 {
				continue
			}
			if limit == 0 {
				fmt.Fprintf(w, "-- zipf %.2f, full join --\n", z)
			} else {
				fmt.Fprintf(w, "-- zipf %.2f, limit %d (%.3f%% of output) --\n", z, limit, group[0].Fraction*100)
			}
			for _, c := range group {
				line := fmt.Sprintf("%-7s first %10s  total %10s  staged %d",
					c.Operator, FormatDuration(time.Duration(c.TimeToFirstNS)),
					FormatDuration(time.Duration(c.TotalNS)), c.Staged)
				if c.Limit > 0 {
					line = fmt.Sprintf("%-7s first %10s  to-limit %10s  total %10s  staged %d",
						c.Operator, FormatDuration(time.Duration(c.TimeToFirstNS)),
						FormatDuration(time.Duration(c.TimeToLimitNS)),
						FormatDuration(time.Duration(c.TotalNS)), c.Staged)
				}
				fmt.Fprintln(w, line)
			}
			if ssj, cbase := streamPair(group); limit > 0 && ssj != nil && cbase != nil && ssj.TimeToLimitNS > 0 {
				fmt.Fprintf(w, "cbase/ssj  to-limit %.1fx  total %.1fx\n",
					float64(cbase.TimeToLimitNS)/float64(ssj.TimeToLimitNS),
					float64(cbase.TotalNS)/float64(ssj.TotalNS))
			}
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "VERIFICATION FAILED: %s\n", e)
	}
	fmt.Fprintln(w)
}
