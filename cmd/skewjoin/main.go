// Command skewjoin runs one join — any of the paper's five algorithms or
// the sort-merge extension — over generated or file-backed tables,
// printing the per-phase breakdown and verifying the output against the
// oracle.
//
// Generated workload:
//
//	skewjoin -alg csh -n 262144 -zipf 0.9
//
// File-backed workload (see cmd/datagen):
//
//	skewjoin -alg gsh -r r.skjr -s s.skjr
//
// Compare every implementation on one workload:
//
//	skewjoin -alg all -n 262144 -zipf 0.9
//
// GPU algorithms (gbase, gsh) report modelled device time, marked with
// '*'; -gputrace additionally prints the simulator's per-kernel launch
// records (blocks, makespan, imbalance).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"skewjoin"
	"skewjoin/internal/bench"
	"skewjoin/internal/exec"
	"skewjoin/internal/gbase"
	"skewjoin/internal/gpusim"
	"skewjoin/internal/gsh"
	"skewjoin/internal/gsmj"
	"skewjoin/internal/relation"
)

func main() {
	var (
		alg     = flag.String("alg", "csh", "algorithm: cbase, cbase-npj, csh, gbase, gsh, smj, gsmj, or all")
		n       = flag.Int("n", 1<<18, "tuples per generated table (ignored with -r/-s)")
		theta   = flag.Float64("zipf", 0.5, "zipf factor for generated tables")
		seed    = flag.Int64("seed", 42, "generator seed")
		rPath   = flag.String("r", "", "path to table R (binary relation file)")
		sPath   = flag.String("s", "", "path to table S (binary relation file)")
		threads = flag.Int("threads", 0, "CPU worker threads (default all cores)")
		backend = flag.String("backend", "", "execution backend: empty (run -alg as-is) or split (cost-model co-processing across CPU and simulated GPU; overrides -alg)")
		device  = flag.String("device", "a100", "simulated GPU profile: a100 (discrete flagship) or coupled (integrated GPU a small multiple faster than the host)")
		policy  = flag.String("policy", "", "split placement policy: model (default), static, cpu, or gpu (with -backend split)")
		frags   = flag.Int("fragments", 0, "max pieces to cut a dominating hot partition into across both backends (with -backend split; 0 = default 8, negative disables fragmentation)")
		verify  = flag.Bool("verify", true, "check the output against the oracle")
		trace   = flag.Bool("gputrace", false, "print the simulator's per-kernel launch records (GPU algorithms)")
	)
	flag.Parse()

	var r, s skewjoin.Relation
	var err error
	switch {
	case *rPath != "" && *sPath != "":
		if r, err = relation.LoadFile(*rPath); err != nil {
			fatal(err)
		}
		if s, err = relation.LoadFile(*sPath); err != nil {
			fatal(err)
		}
	case *rPath == "" && *sPath == "":
		if r, s, err = skewjoin.GenerateZipfPair(*n, *theta, *seed); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("provide both -r and -s, or neither"))
	}

	var dev skewjoin.DeviceConfig
	switch *device {
	case "", "a100":
		// zero value = A100
	case "coupled":
		dev = skewjoin.CoupledDevice()
	default:
		fatal(fmt.Errorf("unknown device %q (want a100 or coupled)", *device))
	}

	if *alg == "all" && *backend == "" {
		compareAll(r, s, *threads, *verify)
		return
	}

	algorithm := skewjoin.Algorithm(*alg)
	opts := &skewjoin.Options{Threads: *threads, Device: dev}
	switch *backend {
	case "":
	case "split":
		algorithm = skewjoin.Split
		opts.Fragments = *frags
		switch skewjoin.SplitPolicy(*policy) {
		case "", skewjoin.SplitPolicyModel, skewjoin.SplitPolicyStatic,
			skewjoin.SplitPolicyCPU, skewjoin.SplitPolicyGPU:
			opts.SplitPolicy = skewjoin.SplitPolicy(*policy)
		default:
			fatal(fmt.Errorf("unknown policy %q (want model, static, cpu, or gpu)", *policy))
		}
	default:
		fatal(fmt.Errorf("unknown backend %q (want split, or omit it)", *backend))
	}

	var res skewjoin.Result
	if *trace && algorithm.IsGPU() {
		// Run through the internal packages to reach the launch records.
		trc, tres := runWithTrace(algorithm, r, s)
		res = tres
		defer printTrace(trc)
	} else {
		res, err = skewjoin.Join(algorithm, r, s, opts)
		if err != nil {
			fatal(err)
		}
	}

	mark := ""
	if res.Modelled {
		mark = "*"
	}
	fmt.Printf("%s over %d x %d tuples: %d result tuples\n",
		res.Algorithm, r.Len(), s.Len(), res.Matches)
	for _, p := range res.Phases {
		fmt.Printf("  %-12s %s%s\n", p.Name, bench.FormatDuration(p.Duration), mark)
	}
	fmt.Printf("  %-12s %s%s\n", "total", bench.FormatDuration(res.Total), mark)
	if res.Modelled {
		fmt.Println("  (* modelled GPU time from the device simulator)")
	}
	if st := res.Split; st != nil && st.Plan != nil {
		if st.Plan.Split {
			fmt.Printf("  co-processing: %d partitions on cpu, %d on gpu (imbalance %.2fx)\n",
				len(st.Plan.CPUParts), len(st.Plan.GPUParts), st.Imbalance)
			if st.Fragmented() {
				fmt.Printf("  hot partition %d fragmented: build replicated, probe cut into %d cpu + %d gpu ranges\n",
					st.Plan.FragmentedPart, st.CPUFragments, st.GPUFragments)
			}
		} else {
			reason := ""
			if st.Plan.DegenerateReason != "" {
				reason = " (" + st.Plan.DegenerateReason + ")"
			}
			fmt.Printf("  co-processing: degenerated to %s-only%s\n", st.Plan.Degenerate, reason)
		}
		fmt.Printf("  join sides: cpu busy %s, gpu modelled %s (predicted makespan %s, actual %s)\n",
			bench.FormatDuration(time.Duration(st.CPUJoinNs)),
			bench.FormatDuration(time.Duration(st.GPUJoinNs+st.GPUTransferNs)),
			bench.FormatDuration(time.Duration(st.Plan.PredictedMakespanNs)),
			bench.FormatDuration(time.Duration(st.JoinSideNs())))
	}

	if *verify {
		want := skewjoin.Expected(r, s)
		if res.Summary() != want {
			fmt.Fprintf(os.Stderr, "VERIFICATION FAILED: got %+v, want %+v\n", res.Summary(), want)
			os.Exit(1)
		}
		fmt.Println("verified: output count and checksum match the oracle")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skewjoin:", err)
	os.Exit(1)
}

// compareAll runs every implementation (including extensions) on the same
// workload and prints a comparison table.
func compareAll(r, s skewjoin.Relation, threads int, verify bool) {
	want := skewjoin.Expected(r, s)
	fmt.Printf("%d x %d tuples, %d expected results\n\n", r.Len(), s.Len(), want.Matches)
	fmt.Printf("%-11s %12s %8s %s\n", "algorithm", "total", "kind", "phases")
	failed := false
	for _, alg := range skewjoin.ExtendedAlgorithms() {
		res, err := skewjoin.Join(alg, r, s, &skewjoin.Options{Threads: threads})
		if err != nil {
			fatal(err)
		}
		kind := "wall"
		if res.Modelled {
			kind = "model"
		}
		var phases []string
		for _, p := range res.Phases {
			phases = append(phases, fmt.Sprintf("%s=%s", p.Name, bench.FormatDuration(p.Duration)))
		}
		status := ""
		if verify && res.Summary() != want {
			status = "  VERIFICATION FAILED"
			failed = true
		}
		fmt.Printf("%-11s %12s %8s %s%s\n",
			res.Algorithm, bench.FormatDuration(res.Total), kind, strings.Join(phases, " "), status)
	}
	if failed {
		os.Exit(1)
	}
}

// runWithTrace executes a GPU algorithm via its internal package so the
// simulator's launch records are available, and adapts the outcome to the
// public Result shape.
func runWithTrace(alg skewjoin.Algorithm, r, s skewjoin.Relation) ([]gpusim.LaunchRecord, skewjoin.Result) {
	var dev gpusim.Config
	adapt := func(sumCount, sumChecksum uint64, phases []exec.Phase) skewjoin.Result {
		res := skewjoin.Result{
			Algorithm: alg,
			Matches:   sumCount,
			Checksum:  sumChecksum,
			Modelled:  true,
		}
		for _, p := range phases {
			res.Phases = append(res.Phases, skewjoin.Phase{Name: p.Name, Duration: p.Duration})
			res.Total += p.Duration
		}
		return res
	}
	switch alg {
	case skewjoin.Gbase:
		gr := gbase.Join(r, s, gbase.Config{Device: dev})
		return gr.Trace, adapt(gr.Summary.Count, gr.Summary.Checksum, gr.Phases)
	case skewjoin.GSH:
		gr := gsh.Join(r, s, gsh.Config{Device: dev})
		return gr.Trace, adapt(gr.Summary.Count, gr.Summary.Checksum, gr.Phases)
	case skewjoin.GSMJ:
		gr := gsmj.Join(r, s, gsmj.Config{Device: dev})
		return gr.Trace, adapt(gr.Summary.Count, gr.Summary.Checksum, gr.Phases)
	default:
		fatal(fmt.Errorf("-gputrace requires a GPU algorithm, got %q", alg))
		return nil, skewjoin.Result{}
	}
}

// printTrace renders the launch records as a table.
func printTrace(trc []gpusim.LaunchRecord) {
	fmt.Println("\nGPU kernel trace (modelled):")
	fmt.Printf("  %-26s %8s %12s %14s %10s\n", "kernel", "blocks", "makespan", "max-block cyc", "imbalance")
	for _, rec := range trc {
		fmt.Printf("  %-26s %8d %12s %14.3g %9.2fx\n",
			rec.Name, rec.Blocks,
			bench.FormatDuration(rec.Duration),
			rec.MaxBlock,
			rec.Imbalance)
	}
}
