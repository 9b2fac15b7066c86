// Command skewjoinctl is the line-oriented client for skewjoind: thin
// subcommands over the daemon's HTTP+JSON API, printing one line per fact
// so output composes with grep/awk.
//
//	skewjoinctl gen r 262144 0.9            # register a generated relation
//	skewjoinctl gen s 262144 0.9 -stream 1  # same key universe, new stream
//	skewjoinctl load orders /data/orders.skjr
//	skewjoinctl relations
//	skewjoinctl join r s                    # auto-planned
//	skewjoinctl join r s -alg cbase -threads 2 -consumer topk -k 3
//	skewjoinctl stats
//	skewjoinctl drop r
//
// The daemon address comes from -addr (before the subcommand) or the
// SKEWJOIND_ADDR environment variable, defaulting to localhost:8080. The
// same client talks to a skewrouter: point -addr at the router, use `join
// -routing` to pin a cluster routing policy and `cluster-stats` for the
// fleet view.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"skewjoin/internal/cluster"
	"skewjoin/internal/service"
)

func main() {
	addr := flag.String("addr", defaultAddr(), "daemon or router address (host:port)")
	timeout := flag.Duration("timeout", 0, "whole-request timeout (0 = no client-side bound)")
	retries := flag.Int("retries", 0, "retries on 429/503/transport failures, honouring the server's Retry-After")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	c := &client{
		base:    "http://" + *addr,
		hc:      &http.Client{Timeout: *timeout},
		retries: *retries,
	}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "gen":
		err = c.gen(rest)
	case "load":
		err = c.load(rest)
	case "relations":
		err = c.relations()
	case "drop":
		err = c.drop(rest)
	case "join":
		err = c.join(rest)
	case "stats":
		err = c.stats()
	case "cluster-stats":
		err = c.clusterStats()
	default:
		fmt.Fprintf(os.Stderr, "skewjoinctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skewjoinctl: %v\n", err)
		os.Exit(1)
	}
}

func defaultAddr() string {
	if a := os.Getenv("SKEWJOIND_ADDR"); a != "" {
		return a
	}
	return "localhost:8080"
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: skewjoinctl [-addr host:port] [-timeout D] [-retries N] <command> [args]

commands:
  gen <name> <n> <theta> [-seed N] [-stream N]   register a generated zipf relation
  load <name> <path>                             register a relation file (server-local path)
  relations                                      list the catalog
  drop <name>                                    remove a relation
  join <r> <s> [-alg A] [-backend cpu|gpu] [-threads N] [-timeout-ms N]
               [-consumer summary|count|topk|groups] [-k N] [-limit N]
               [-routing auto|hash|frag]         (routing is router-only)
  stats                                          admission counters and latency histograms
  cluster-stats                                  per-shard fleet view (router only)
`)
}

type client struct {
	base    string
	hc      *http.Client
	retries int
}

// httpError is a non-2xx response: the server's own message, the status,
// and its Retry-After ask when it named one.
type httpError struct {
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *httpError) Error() string {
	if e.retryAfter > 0 {
		return fmt.Sprintf("%s (HTTP %d, retry after %v)", e.msg, e.status, e.retryAfter)
	}
	return fmt.Sprintf("%s (HTTP %d)", e.msg, e.status)
}

// retryable mirrors the router's transient class: shed load and gateway
// failures may clear; other 4xx/5xx are a request bug and retrying would
// only repeat them.
func (e *httpError) retryable() bool {
	switch e.status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// call sends body (nil for none) and decodes the JSON response into out,
// turning every non-2xx status into a descriptive error. With -retries set
// it retries transport failures and transient statuses, waiting out the
// server's Retry-After when one was given.
func (c *client) call(method, path string, body, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.once(method, path, body, out)
		if err == nil || attempt >= c.retries {
			return err
		}
		wait := time.Duration(attempt+1) * 200 * time.Millisecond
		if he, ok := err.(*httpError); ok {
			if !he.retryable() {
				return err
			}
			if he.retryAfter > wait {
				wait = he.retryAfter
			}
		}
		fmt.Fprintf(os.Stderr, "skewjoinctl: %v; retrying in %v (%d/%d)\n", err, wait, attempt+1, c.retries)
		time.Sleep(wait)
	}
}

func (c *client) once(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		he := &httpError{status: resp.StatusCode}
		if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
			he.retryAfter = time.Duration(secs) * time.Second
		}
		var e service.ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			he.msg = e.Error
		} else {
			he.msg = string(bytes.TrimSpace(raw))
		}
		return he
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func printRelation(info service.RelationInfo) {
	fmt.Printf("%s\ttuples=%d\tdistinct=%d\tmax_key_freq=%d\tsource=%s\n",
		info.Name, info.Tuples, info.DistinctKeys, info.MaxKeyFreq, info.Source)
}

func (c *client) gen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "generator seed (same seed = joinable key universe)")
	stream := fs.Int64("stream", 0, "generator stream within the seed's universe")
	args, err := splitPositional(fs, args, 3)
	if err != nil {
		return fmt.Errorf("gen: %v (want: gen <name> <n> <theta>)", err)
	}
	n, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("gen: n %q: %v", args[1], err)
	}
	theta, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return fmt.Errorf("gen: theta %q: %v", args[2], err)
	}
	req := service.RegisterRequest{
		Name:     args[0],
		Generate: &service.GenerateSpec{N: n, Zipf: theta, Seed: *seed, Stream: *stream},
	}
	var info service.RelationInfo
	if err := c.call("POST", "/relations", req, &info); err != nil {
		return err
	}
	printRelation(info)
	return nil
}

func (c *client) load(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("load: want: load <name> <path>")
	}
	req := service.RegisterRequest{Name: args[0], Path: args[1]}
	var info service.RelationInfo
	if err := c.call("POST", "/relations", req, &info); err != nil {
		return err
	}
	printRelation(info)
	return nil
}

func (c *client) relations() error {
	var infos []service.RelationInfo
	if err := c.call("GET", "/relations", nil, &infos); err != nil {
		return err
	}
	for _, info := range infos {
		printRelation(info)
	}
	return nil
}

func (c *client) drop(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("drop: want: drop <name>")
	}
	if err := c.call("DELETE", "/relations/"+args[0], nil, nil); err != nil {
		return err
	}
	fmt.Printf("dropped %s\n", args[0])
	return nil
}

func (c *client) join(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	alg := fs.String("alg", "auto", "algorithm, or auto for planner dispatch")
	backend := fs.String("backend", "", "auto target: cpu (default) or gpu")
	threads := fs.Int("threads", 0, "thread weight against the server budget (0 = whole budget)")
	timeoutMS := fs.Int64("timeout-ms", 0, "request deadline in ms (0 = server default)")
	consumer := fs.String("consumer", "", "result consumer: summary (default), count, topk, or groups")
	k := fs.Int("k", 0, "keys -consumer topk returns (0 = the server's default, 5)")
	limit := fs.Int("limit", 0, "stop after at least N results (CPU operators only; 0 = full join)")
	routing := fs.String("routing", "", "cluster routing policy: auto, hash or frag (router only; a plain daemon rejects it)")
	args, err := splitPositional(fs, args, 2)
	if err != nil {
		return fmt.Errorf("join: %v (want: join <r> <s>)", err)
	}
	req := service.JoinRequest{
		R: args[0], S: args[1],
		Algorithm: *alg, Backend: *backend, Threads: *threads,
		TimeoutMS: *timeoutMS, Consumer: *consumer, K: *k,
		Limit: *limit, Routing: *routing,
	}
	var resp cluster.JoinResponse
	if err := c.call("POST", "/join", req, &resp); err != nil {
		return err
	}
	mode := "pinned"
	if resp.Auto {
		mode = "auto"
	}
	fmt.Printf("algorithm=%s (%s)\tmatches=%d\tchecksum=%#x\twait_ms=%.2f\tjoin_ms=%.2f\n",
		resp.Algorithm, mode, resp.Matches, resp.Checksum, resp.WaitMS, resp.JoinMS)
	if p := resp.Planner; p != nil {
		fmt.Printf("planner\tskew_detected=%v\ttop_key_estimate=%d\tsample_size=%d\tstreaming=%v\n",
			p.SkewDetected, p.TopKeyEstimate, p.SampleSize, p.Streaming)
	}
	if st := resp.Stream; st != nil {
		fmt.Printf("stream\tfirst_result_ms=%.3f\tstaged=%d\tlimit_hit=%v", st.FirstResultMS, st.Staged, st.LimitHit)
		if st.LimitHit {
			fmt.Printf("\tlimit_ms=%.3f", st.LimitMS)
		}
		if st.Chunks > 0 {
			fmt.Printf("\tchunks=%d", st.Chunks)
		}
		fmt.Println()
	}
	for _, ph := range resp.Phases {
		fmt.Printf("phase\t%s\t%.3fms\n", ph.Name, ph.MS)
	}
	if resp.Rows != nil {
		fmt.Printf("rows\t%d\n", *resp.Rows)
	}
	for _, kw := range resp.TopKeys {
		fmt.Printf("topkey\t%d\tweight=%d\n", kw.Key, kw.Weight)
	}
	for _, kw := range resp.Groups {
		fmt.Printf("group\t%d\tcount=%d\n", kw.Key, kw.Weight)
	}
	if cl := resp.Cluster; cl != nil {
		fmt.Printf("cluster\tpolicy=%s\thot_keys=%d\n", cl.Policy, len(cl.HotKeys))
		for _, sh := range cl.Shards {
			fmt.Printf("shard\t%d\tcalls=%d\tmatches=%d\tjoin_ms=%.2f\tbusy_ms=%.2f\n",
				sh.Shard, sh.Calls, sh.Matches, sh.JoinMS, sh.BusyMS)
		}
	}
	return nil
}

func (c *client) clusterStats() error {
	var st cluster.StatsResponse
	if err := c.call("GET", "/cluster/stats", nil, &st); err != nil {
		return err
	}
	fmt.Printf("fleet\tshards=%d\trelations=%d\tjoins=%d\tshed=%d\n",
		len(st.Shards), len(st.Relations), st.Joins, st.Shed)
	for _, sh := range st.Shards {
		state := "healthy"
		if !sh.Healthy {
			state = "unreachable: " + sh.Error
		}
		fmt.Printf("shard\t%d\t%s\tewma_join_ms=%.2f\tin_flight=%d\tqueued=%d\t%s\n",
			sh.Shard, sh.URL, sh.EwmaJoinMS, sh.Admission.InFlight, sh.Admission.Queued, state)
		if sh.Stats != nil {
			a := sh.Stats.Admission
			fmt.Printf("shard\t%d\tadmission\tsubmitted=%d\tadmitted=%d\trejected=%d\tcompleted=%d\n",
				sh.Shard, a.Submitted, a.Admitted, a.Rejected, a.Completed)
		}
	}
	return nil
}

func (c *client) stats() error {
	var st service.StatsResponse
	if err := c.call("GET", "/stats", nil, &st); err != nil {
		return err
	}
	a := st.Admission
	fmt.Printf("admission\tbudget=%d\tqueue=%d\tin_use=%d\tin_flight=%d\tqueued=%d\n",
		a.ThreadBudget, a.MaxQueue, a.ThreadsInUse, a.InFlight, a.Queued)
	fmt.Printf("counters\tsubmitted=%d\tadmitted=%d\trejected=%d\trejected_full=%d\trejected_timeout=%d\tcompleted=%d\n",
		a.Submitted, a.Admitted, a.Rejected, a.RejectedFull, a.RejectedTimeout, a.Completed)
	fmt.Printf("relations\t%d registered\n", len(st.Relations))
	algs := make([]string, 0, len(st.Algorithms))
	for alg := range st.Algorithms {
		algs = append(algs, alg)
	}
	sort.Strings(algs)
	for _, alg := range algs {
		as := st.Algorithms[alg]
		mean := 0.0
		if as.Count > 0 {
			mean = as.TotalMS / float64(as.Count)
		}
		fmt.Printf("algorithm\t%s\tcount=%d\terrors=%d\tmean_ms=%.2f\tmax_ms=%.2f\n",
			alg, as.Count, as.Errors, mean, as.MaxMS)
		if fr := as.FirstResult; fr != nil {
			fmt.Printf("first_result\t%s\tcount=%d\tmean_ms=%.3f\tmax_ms=%.3f\tlimit_hits=%d\n",
				alg, fr.Count, fr.TotalMS/float64(fr.Count), fr.MaxMS, as.LimitHits)
		}
	}
	return nil
}

// splitPositional parses flags that may follow n positional arguments
// (`join r s -alg cbase`) and returns the positionals.
func splitPositional(fs *flag.FlagSet, args []string, n int) ([]string, error) {
	if len(args) < n {
		return nil, fmt.Errorf("want %d arguments", n)
	}
	if err := fs.Parse(args[n:]); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return args[:n], nil
}
