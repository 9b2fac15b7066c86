// Command skewbench regenerates the paper's evaluation — Figure 1,
// Figures 4a/4b, Table I, the scale-up experiment and the headline speedup
// summary — plus this repository's extension experiments: the §III skew
// analysis, one-sided S skew (sskew), sort-vs-hash (sortvshash) and
// per-join memory footprints (memory).
//
// The gpu experiment measures the host worker pool that executes the
// simulated GPU's thread blocks against one worker (plus an A/A
// control), writing BENCH_gpu.json via make bench-gpu. It and the sweeps
// below are excluded from "all"; run them explicitly.
//
// The coproc experiment benchmarks the cost-model-driven CPU/GPU split
// executor against its pinned single-backend controls on the coupled
// device profile, writing BENCH_coproc.json via make bench-coproc. The
// shard experiment benchmarks the cluster router's fragment-and-replicate
// routing against hash placement (plus an A/A control) on an in-process
// 3-shard fleet, writing BENCH_shard.json via make bench-shard. The
// stream experiment benchmarks the streaming symmetric join's
// time-to-first-result and time-to-limit against the blocking control
// (plus an A/A control), writing BENCH_stream.json via make bench-stream.
//
// Usage:
//
//	skewbench [-exp fig1|fig4a|fig4b|table1|speedup|large|
//	                analysis|sskew|sortvshash|memory|gpu|coproc|shard|stream|all]
//	          [-n tuples] [-threads k] [-seed s] [-zipf list] [-shm KiB]
//	          [-json] [-plot] [-out file.json]
//
// GPU times (marked '*') are modelled by the device simulator; CPU times
// are wall-clock. Every run is verified against the join oracle; any
// mismatch is printed and exits non-zero. With -json the reports are
// emitted as a single JSON object keyed by experiment name; with -plot the
// figure reports are also rendered as log-scale ASCII charts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"skewjoin/internal/bench"
)

// experiments lists every experiment by its -exp name, in the order
// "all" runs them; the extension sweeps that write BENCH artifacts run
// only when named.
var experiments = []struct {
	name string
	run  func(bench.Config) (*bench.Artifact, error)
	all  bool
}{
	{"fig1", bench.Fig1, true},
	{"fig4a", bench.Fig4a, true},
	{"fig4b", bench.Fig4b, true},
	{"table1", bench.Table1, true},
	{"speedup", bench.Speedup, true},
	{"large", bench.Large, true},
	{"analysis", bench.Analysis, true},
	{"sskew", bench.SSkew, true},
	{"sortvshash", bench.SortVsHash, true},
	{"memory", bench.Memory, true},
	{"gpu", bench.GPUBench, false},
	{"coproc", bench.CoprocBench, false},
	{"shard", bench.ShardBench, false},
	{"stream", bench.StreamBench, false},
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig1, fig4a, fig4b, table1, speedup, large, analysis, sskew, sortvshash, memory, gpu, coproc, shard, stream, or all")
		tuples  = flag.Int("n", 0, "tuples per input table (default $SKEWJOIN_TUPLES or 262144)")
		threads = flag.Int("threads", 0, "CPU worker threads (default all cores)")
		seed    = flag.Int64("seed", 42, "workload seed")
		repeats = flag.Int("repeats", 0, "timed runs per measured configuration, best kept (default 3)")
		zipfStr = flag.String("zipf", "", "comma-separated zipf factors (default: each experiment's own grid, 0.0..1.0 step 0.1 for the figures)")
		shmKB   = flag.Int("shm", 0, "simulated GPU shared memory per block, KiB (default 64 = A100-like); shrink to match the paper's skew-to-capacity ratio at small table sizes")
		minWin  = flag.Int64("minwin", 0, "split planner absolute win floor in ms for -exp coproc (default 0 = engine default 25ms); smoke runs at tiny -n lower it to ~1ms")
		asJSON  = flag.Bool("json", false, "emit reports as JSON instead of text tables")
		plot    = flag.Bool("plot", false, "also render figure reports as log-scale ASCII charts")
		outFile = flag.String("out", "", "also write the report as JSON to this file (e.g. BENCH_gpu.json; single -exp runs only)")
	)
	flag.Parse()

	cfg := bench.Config{Tuples: *tuples, Threads: *threads, Seed: *seed, Repeats: *repeats}
	if *shmKB > 0 {
		cfg.Device.SharedMemBytes = *shmKB << 10
	}
	if *minWin > 0 {
		cfg.SplitMinWinNs = *minWin * 1e6
	}
	if *zipfStr != "" {
		zs, err := parseZipfs(*zipfStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skewbench:", err)
			os.Exit(2)
		}
		cfg.Zipfs = zs
	}

	failed, ran := false, false
	jsonOut := map[string]any{}
	for _, e := range experiments {
		if *exp != e.name && !(*exp == "all" && e.all) {
			continue
		}
		ran = true
		art, err := e.run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skewbench:", err)
			os.Exit(1)
		}
		failed = failed || len(art.Errors) > 0
		if *outFile != "" && *exp != "all" {
			if err := writeJSON(*outFile, art); err != nil {
				fmt.Fprintln(os.Stderr, "skewbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "skewbench: wrote %s\n", *outFile)
		}
		if *asJSON {
			jsonOut[e.name] = art
		} else {
			art.Fprint(os.Stdout)
			if *plot {
				art.Plot(os.Stdout)
			}
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "skewbench: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "skewbench:", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeJSON writes v as indented JSON to path, atomically: parent
// directories are created as needed, the JSON is written to a temporary
// file in the target directory, fsynced, and renamed into place — an
// interrupted run never leaves a torn or half-written report behind.
func writeJSON(path string, v any) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		return errors.Join(err, f.Close(), os.Remove(tmp))
	}
	// CreateTemp defaults to 0600; match os.Create's umask-filtered 0666.
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	if err := os.Rename(tmp, path); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	return nil
}

func parseZipfs(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		z, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad zipf factor %q", part)
		}
		out = append(out, z)
	}
	return out, nil
}
